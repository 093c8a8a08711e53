"""Finite posets, their chains, and chain subcomplexes.

A Poset holds a tuple of hashable labels and, per element i, the int
bitmask of the elements above it.  Chains (totally ordered subsets) are
stored as int bitmasks over element indices too, so families of chains
are plain sets of ints and subchain tests are single & operations.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Sequence

from .bits import bit_list, bits, mask_of

Label = Hashable


class LeqView:
    """Read-only view of up-mask rows: view[i, j] is True iff i <= j."""

    def __init__(self, up_masks: Sequence[int]):
        self._ups = up_masks

    def __getitem__(self, ij: tuple[int, int]) -> bool:
        return bool(self._ups[ij[0]] >> ij[1] & 1)


class Poset:
    """Finite poset on an explicit element list.

    up_masks[i] is the bitmask of {j : element i <= element j}.  The
    relation is validated (reflexive, antisymmetric, transitive) at
    construction.
    """

    def __init__(self, elements: Sequence[Label], up_masks: Sequence[int],
                 validate: bool = True):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate labels")
        self.up_masks = list(up_masks)
        n = len(self.elements)
        if len(self.up_masks) != n or any(up >> n for up in self.up_masks):
            raise ValueError("up_masks do not fit the elements")
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Antisymmetric at i iff i is not in reach[i], transitive at i iff
        reach[i] lies inside up[i]; a failure is named by the first broken
        pair of the first failing element."""
        ups = self.up_masks
        for i, (up, reach) in enumerate(zip(ups, self._reach)):
            if not up >> i & 1:
                raise ValueError("relation not reflexive")
            if reach >> i & 1 or reach & ~up:
                for j in bits(up & ~(1 << i)):
                    if ups[j] >> i & 1:
                        raise ValueError("relation not antisymmetric")
                    if ups[j] & ~up:
                        raise ValueError("relation not transitive")

    @classmethod
    def from_relation(cls, elements: Sequence[Label], related: Callable[[Label, Label], bool]) -> "Poset":
        els = list(elements)
        return cls(els, [mask_of(j for j, b in enumerate(els) if related(a, b)) for a in els])

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self.index

    def less_eq(self, a: Label, b: Label) -> bool:
        return bool(self.up_masks[self.index[a]] >> self.index[b] & 1)

    @cached_property
    def leq(self) -> "LeqView":
        """Read-only view: leq[i, j] is True iff element i <= element j."""
        return LeqView(self.up_masks)

    @cached_property
    def down_masks(self) -> list[int]:
        """down_masks[j] = bitmask of {i : i <= j}."""
        downs = [0] * len(self)
        for i, up in enumerate(self.up_masks):
            for j in bits(up):
                downs[j] |= 1 << i
        return downs

    def between(self, i: int, j: int) -> int:
        """Mask of the closed interval {k : i <= k <= j}; 0 unless i <= j."""
        return self.up_masks[i] & self.down_masks[j]

    @cached_property
    def strict_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), element i strictly below element j, shortest
        interval first."""
        return sorted(((i, j) for i, up in enumerate(self.up_masks)
                       for j in bits(up & ~(1 << i))),
                      key=lambda ij: self.between(*ij).bit_count())

    @cached_property
    def _reach(self) -> list[int]:
        """reach[i] = OR of the strict up-rows of the elements strictly above i."""
        above = [up & ~(1 << i) for i, up in enumerate(self.up_masks)]
        return [reduce(or_, map(above.__getitem__, bits(a)), 0) for a in above]

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram as index pairs (i, j) with i covered by j, ascending."""
        return [(i, j) for i, (up, reach) in enumerate(zip(self.up_masks, self._reach))
                for j in bits(up & ~(1 << i) & ~reach)]

    @cached_property
    def topo_rank(self) -> list[int]:
        """Ranks of a linear extension; within a chain, rank order = poset order.

        Elements are ranked by the size of their down-set: i < j strictly
        implies that the down-set of i is strictly smaller."""
        sizes = [down.bit_count() for down in self.down_masks]
        rank = [0] * len(self)
        for r, i in enumerate(sorted(range(len(self)), key=sizes.__getitem__)):
            rank[i] = r
        return rank

    def chain_tuple(self, chain_mask: int) -> tuple[int, ...]:
        """Indices of a chain sorted in increasing poset order."""
        return tuple(sorted(bits(chain_mask), key=lambda i: self.topo_rank[i]))

    def is_chain(self, chain_mask: int) -> bool:
        ups, downs = self.up_masks, self.down_masks
        return all(chain_mask & ~(ups[i] | downs[i]) == 0 for i in bits(chain_mask))

    def minimum(self) -> Label | None:
        full = (1 << len(self)) - 1
        return next((e for e, up in zip(self.elements, self.up_masks) if up == full), None)

    def maximum(self) -> Label | None:
        above_all = reduce(and_, self.up_masks, (1 << len(self)) - 1)
        return self.elements[above_all.bit_length() - 1] if above_all else None

    def full_subposet(self, labels: Iterable[Label]) -> "Poset":
        keep = [self.index[l] for l in labels]
        kept, pos = mask_of(keep), {j: k for k, j in enumerate(keep)}
        rows = [mask_of(pos[j] for j in bits(self.up_masks[i] & kept)) for i in keep]
        return Poset([self.elements[i] for i in keep], rows, validate=False)

    def opposite(self) -> "Poset":
        return Poset(self.elements, self.down_masks, validate=False)

    def to_dot(self, label_str: Callable[[Label], str]) -> str:
        """Hasse diagram in DOT format, edges pointing from smaller to larger."""
        lines = ["digraph poset {", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            lines.append(f'  n{i} [label="{label_str(e)}"];')
        for i, j in self.covers:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements)"


def chains_in(poset: Poset, mask: int) -> list[int]:
    """Every nonempty chain inside the element mask, one length at a time,
    each chain extended by the elements of mask above its top."""
    ups = poset.up_masks
    above = {t: [(j, 1 << j) for j in bits(ups[t] & mask & ~(1 << t))] for t in bits(mask)}
    level = {t: [1 << t] for t in above}
    out: list[int] = []
    while level:
        longer: dict[int, list[int]] = {}
        for top, cs in level.items():
            out.extend(cs)
            for j, b in above[top]:
                longer.setdefault(j, []).extend([c | b for c in cs])
        level = longer
    return out


def nerve_chains(poset: Poset) -> list[int]:
    """All nonempty chains of the poset as index masks, sorted for determinism."""
    return sorted(chains_in(poset, (1 << len(poset)) - 1))


def strict_interval(poset: Poset, a: Label, b: Label) -> Poset:
    """Full subposet of elements strictly between a and b."""
    ia, ib = poset.index[a], poset.index[b]
    inner = poset.between(ia, ib) & ~(1 << ia) & ~(1 << ib)
    return poset.full_subposet(poset.elements[k] for k in bits(inner))


class MonotoneMap:
    """Monotone map between posets, verified at construction."""

    def __init__(self, source: Poset, target: Poset, mapping: dict[Label, Label]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        missing = [e for e in source.elements if e not in self.mapping]
        if missing:
            raise ValueError(f"mapping not total, missing {missing[:3]}")
        for a in source.elements:
            for b in source.elements:
                if source.less_eq(a, b) and not target.less_eq(self.mapping[a], self.mapping[b]):
                    raise ValueError(f"not monotone at ({a!r}, {b!r})")

    def __call__(self, label: Label) -> Label:
        return self.mapping[label]

    def image(self) -> set[Label]:
        return set(self.mapping.values())


class ChainSubcomplex:
    """Subcomplex of a poset nerve, stored as a subchain-closed chain family.

    chains is a set of index masks over the ambient poset.  Every
    nonempty submask of a member chain is again a member, so simplices
    of dimension k are exactly the members with k + 1 bits.
    """

    def __init__(self, ambient: Poset, chains: Iterable[int], validate: bool = True):
        self.ambient = ambient
        self.chains = set(chains)
        if validate:
            self._validate()

    def _validate(self) -> None:
        for c in self.chains:
            if c == 0:
                raise ValueError("empty chain stored")
            if not self.ambient.is_chain(c):
                raise ValueError(f"not a chain: {bit_list(c)}")
            for b in bits(c):
                sub = c & ~(1 << b)
                if sub and sub not in self.chains:
                    raise ValueError("family not subchain-closed")
                if (1 << b) not in self.chains:
                    raise ValueError("missing singleton")

    @classmethod
    def closure(cls, ambient: Poset, generators: Iterable[int]) -> "ChainSubcomplex":
        """Close a set of chains under nonempty subchains."""
        family: set[int] = set()
        stack = [g for g in generators if g]
        while stack:
            c = stack.pop()
            if c in family:
                continue
            family.add(c)
            for b in bits(c):
                sub = c & ~(1 << b)
                if sub and sub not in family:
                    stack.append(sub)
        return cls(ambient, family, validate=False)

    @cached_property
    def segments(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Member chains by (bottom, top) ambient index, as sorted tuples
        so that no reader can alter this index shared by all of them."""
        ups, chains, verts = self.ambient.up_masks, self.chains, self.vertices()
        # dropping a member's top leaves a member, so walking up from each
        # singleton through member chains reaches every member exactly once
        above = {t: [(j, 1 << j) for j in bits(ups[t] & ~(1 << t))
                     if (1 << t | 1 << j) in chains] for t in verts}
        level = {(v, v): [1 << v] for v in verts}
        groups: dict[tuple[int, int], list[int]] = {}
        while level:
            longer: dict[tuple[int, int], list[int]] = {}
            for (lo, top), cs in level.items():
                groups.setdefault((lo, top), []).extend(cs)
                for j, b in above[top]:
                    found = [d for c in cs if (d := c | b) in chains]
                    if found:
                        longer.setdefault((lo, j), []).extend(found)
            level = longer
        return {ends: tuple(sorted(cs)) for ends, cs in groups.items()}

    def vertices(self) -> list[int]:
        return [b for b in range(len(self.ambient)) if 1 << b in self.chains]

    def dimension(self) -> int:
        return max((c.bit_count() - 1 for c in self.chains), default=-1)

    def __contains__(self, chain_mask: int) -> bool:
        return chain_mask in self.chains

    def __repr__(self) -> str:
        return f"ChainSubcomplex({len(self.chains)} chains, dim {self.dimension()})"
