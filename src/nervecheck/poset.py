"""Finite posets, their chains, and chain subcomplexes.

A Poset holds a tuple of hashable labels and a dense boolean matrix for
the order relation.  Chains (totally ordered subsets) are stored as int
bitmasks over element indices, so families of chains are plain sets of
ints and subchain tests are single & operations.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .bits import bit_list, bits, mask_of

Label = Hashable


class Poset:
    """Finite poset on an explicit element list.

    leq[i, j] is True iff element i <= element j.  The relation is
    validated (reflexive, antisymmetric, transitive) at construction.
    """

    def __init__(self, elements: Sequence[Label], leq: np.ndarray, validate: bool = True):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate labels")
        self.leq = np.asarray(leq, dtype=bool)
        n = len(self.elements)
        if self.leq.shape != (n, n):
            raise ValueError("leq shape mismatch")
        if validate:
            self._validate()

    def _validate(self) -> None:
        m = self.leq
        n = len(self.elements)
        if not m.diagonal().all():
            raise ValueError("relation not reflexive")
        if (m & m.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("relation not antisymmetric")
        closure = m @ m
        if (closure & ~m).any():
            raise ValueError("relation not transitive")

    @classmethod
    def from_relation(cls, elements: Sequence[Label], related: Callable[[Label, Label], bool]) -> "Poset":
        els = list(elements)
        n = len(els)
        m = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                m[i, j] = related(a, b)
        return cls(els, m)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self.index

    def less_eq(self, a: Label, b: Label) -> bool:
        return bool(self.leq[self.index[a], self.index[b]])

    @cached_property
    def up_masks(self) -> list[int]:
        """up_masks[i] = bitmask of {j : i <= j}."""
        return [mask_of(np.nonzero(self.leq[i])[0].tolist()) for i in range(len(self))]

    @cached_property
    def down_masks(self) -> list[int]:
        return [mask_of(np.nonzero(self.leq[:, j])[0].tolist()) for j in range(len(self))]

    def between(self, i: int, j: int) -> int:
        """Mask of the closed interval {k : i <= k <= j}; 0 unless i <= j."""
        return self.up_masks[i] & self.down_masks[j]

    @cached_property
    def strict_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), element i strictly below element j, shortest
        interval first."""
        n = len(self)
        return sorted(((i, j) for i in range(n) for j in range(n)
                       if i != j and self.leq[i, j]),
                      key=lambda ij: self.between(*ij).bit_count())

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram as index pairs (i, j) with i covered by j."""
        lt = self.leq & ~np.eye(len(self), dtype=bool)
        cov = lt & ~(lt @ lt)
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(cov))]

    @cached_property
    def topo_rank(self) -> list[int]:
        """Ranks of a linear extension; within a chain, rank order = poset order."""
        lt = self.leq & ~np.eye(len(self), dtype=bool)
        indeg = lt.sum(axis=0)
        rank = [0] * len(self)
        placed = 0
        ready = sorted(int(i) for i in np.nonzero(indeg == 0)[0])
        indeg = indeg.astype(int)
        while ready:
            nxt: list[int] = []
            for i in ready:
                rank[i] = placed
                placed += 1
                for j in np.nonzero(lt[i])[0]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        nxt.append(int(j))
            ready = sorted(nxt)
        if placed != len(self):
            raise ValueError("cycle detected")  # unreachable after validation
        return rank

    def chain_tuple(self, chain_mask: int) -> tuple[int, ...]:
        """Indices of a chain sorted in increasing poset order."""
        return tuple(sorted(bits(chain_mask), key=lambda i: self.topo_rank[i]))

    def is_chain(self, chain_mask: int) -> bool:
        idx = bit_list(chain_mask)
        return all(self.leq[i, j] or self.leq[j, i] for k, i in enumerate(idx) for j in idx[k + 1:])

    def minimum(self) -> Label | None:
        for i in range(len(self)):
            if self.leq[i].all():
                return self.elements[i]
        return None

    def maximum(self) -> Label | None:
        for j in range(len(self)):
            if self.leq[:, j].all():
                return self.elements[j]
        return None

    def full_subposet(self, labels: Iterable[Label]) -> "Poset":
        keep = [self.index[l] for l in labels]
        sub = self.leq[np.ix_(keep, keep)]
        return Poset([self.elements[i] for i in keep], sub, validate=False)

    def opposite(self) -> "Poset":
        return Poset(self.elements, self.leq.T.copy(), validate=False)

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


def nerve_chains(poset: Poset) -> list[int]:
    """All nonempty chains of the poset as index masks, sorted for determinism."""
    ups = poset.up_masks
    out: list[int] = []

    def extend(mask: int, top: int) -> None:
        out.append(mask)
        for j in bits(ups[top] & ~(1 << top)):
            extend(mask | (1 << j), j)

    for i in range(len(poset)):
        extend(1 << i, i)
    return sorted(out)


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
        groups: dict[tuple[int, int], list[int]] = {}
        for c in self.chains:
            tup = self.ambient.chain_tuple(c)
            groups.setdefault((tup[0], tup[-1]), []).append(c)
        return {ends: tuple(sorted(cs)) for ends, cs in groups.items()}

    def vertices(self) -> list[int]:
        return sorted(c.bit_length() - 1 for c in self.chains if c.bit_count() == 1)

    def dimension(self) -> int:
        return max((c.bit_count() - 1 for c in self.chains), default=-1)

    def __contains__(self, chain_mask: int) -> bool:
        return chain_mask in self.chains

    def __repr__(self) -> str:
        return f"ChainSubcomplex({len(self.chains)} chains, dim {self.dimension()})"
