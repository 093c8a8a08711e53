"""Combinatorial mapping-space models between elements of a D-poset.

Fix a subcomplex K of the nerve of a poset and two comparable elements
S, T.  A k-simplex of the mapping space is a strict flag
M0 c M1 c ... c Mk of chains from S to T such that for each pair of
consecutive elements a < b of M0 the segment of Mk between a and b
(endpoints included) is a chain of K.  Faces drop flag levels, so the
family is an abstract simplicial complex on the set of such chains.

The necklace oracle recomputes the same simplices along a different
route: sequences of beads (K-chains with matching endpoints) glued end
to end, then all interior flags between the joint set and the full
vertex set of the necklace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_

from .bits import bit_list, bits, max_bit, min_bit, subsets_of
from .oriental import build_d, interval_mask
from .poset import ChainSubcomplex, MonotoneMap, Poset

Flag = tuple[int, ...]


@dataclass
class FlagModel:
    """Simplices of a mapping-space model, grouped by dimension."""

    ambient: Poset
    source: int
    target: int
    simplices: dict[int, list[Flag]]

    def counts(self) -> list[int]:
        top = max(self.simplices, default=-1)
        return [len(self.simplices.get(k, [])) for k in range(top + 1)]

    def vertices(self) -> list[int]:
        return [f[0] for f in self.simplices.get(0, [])]

    def is_empty(self) -> bool:
        return not self.simplices.get(0)

    def to_complex(self):
        """Flags are strictly increasing mask tuples, closed under dropping levels."""
        from .homotopy import Complex
        return Complex(f for fs in self.simplices.values() for f in fs)

    def same_simplices(self, other: "FlagModel") -> bool:
        keys = set(self.simplices) | set(other.simplices)
        return all(sorted(self.simplices.get(k, [])) ==
                   sorted(other.simplices.get(k, [])) for k in keys)


def _flags_above(bottom: int, admissible: list[int],
                 max_dim: int | None) -> list[Flag]:
    """Strict inclusion flags in the sorted admissible family starting at
    bottom, built one level (flag length) at a time."""
    # a strict superset is the larger int, so only later masks can be one
    sups = {m: [b for b in admissible[i + 1:] if m & ~b == 0]
            for i, m in enumerate(admissible)}
    level: list[Flag] = [(bottom,)]
    out: list[Flag] = []
    while level:
        out += level
        if max_dim is not None and len(level[0]) - 1 >= max_dim:
            break
        level = [f + (b,) for f in level for b in sups[f[-1]]]
    return out


def _edge_paths(k: ChainSubcomplex, s_idx: int, t_idx: int,
                interval: set[int]) -> list[int]:
    """Chains from S to T all of whose consecutive pairs are edges of K."""
    p = k.ambient
    if s_idx == t_idx:
        return [1 << s_idx] if (1 << s_idx) in k.chains else []
    found: list[int] = []

    def walk(mask: int, last: int) -> None:
        if last == t_idx:
            found.append(mask)
            return
        for nxt in bits(p.up_masks[last] & ~(1 << last)):
            if nxt in interval and ((1 << last) | (1 << nxt)) in k.chains:
                walk(mask | (1 << nxt), nxt)

    walk(1 << s_idx, s_idx)
    return sorted(found)


def flag_model(k: ChainSubcomplex, s: int, t: int,
               max_dim: int | None = None) -> FlagModel:
    """Mapping-space model between comparable vertices S and T of K."""
    p = k.ambient
    s_idx, t_idx = p.index[s], p.index[t]
    if not p.up_masks[s_idx] >> t_idx & 1:
        raise ValueError("source must be below target")
    interval = set(bits(p.between(s_idx, t_idx)))

    simplices: dict[int, list[Flag]] = {}
    for bottom in _edge_paths(k, s_idx, t_idx, interval):
        tup = p.chain_tuple(bottom)
        per_segment = [k.segments.get((a, b), ()) for a, b in zip(tup, tup[1:])]
        if any(not ch for ch in per_segment):
            continue
        if per_segment:
            admissible = sorted(set(
                reduce(or_, choice) for choice in product(*per_segment)))
        else:
            admissible = [bottom]
        for flag in _flags_above(bottom, admissible, max_dim):
            simplices.setdefault(len(flag) - 1, []).append(flag)
    for v in simplices.values():
        v.sort()
    return FlagModel(p, s, t, simplices)


# The oracle enumerates every bead sequence; D^4's full nerve (16
# vertices) is the largest complex it is run on.
NECKLACE_MAX_VERTICES = 16


def necklace_oracle(k: ChainSubcomplex, s: int, t: int,
                    max_dim: int | None = None) -> FlagModel:
    """Mapping space recomputed from bead sequences.

    A necklace is a sequence of K-chains with two or more elements whose
    endpoints match up, starting at S and ending at T.  Its simplices
    are the strict flags from the joint set to the full vertex set.
    This route never evaluates the segment condition directly.
    """
    p = k.ambient
    n_vertices = sum(1 for c in k.chains if c.bit_count() == 1)
    if n_vertices > NECKLACE_MAX_VERTICES:
        raise ValueError(
            f"necklace oracle limited to {NECKLACE_MAX_VERTICES} vertices")
    s_idx, t_idx = p.index[s], p.index[t]
    if not p.up_masks[s_idx] >> t_idx & 1:
        raise ValueError("source must be below target")
    interval = set(bits(p.between(s_idx, t_idx)))

    beads_from: dict[int, list[tuple[int, int]]] = {}
    for (a, b), chains_ab in k.segments.items():
        if a == b or a not in interval or b not in interval:
            continue
        for c in chains_ab:
            beads_from.setdefault(a, []).append((b, c))
    for v in beads_from.values():
        v.sort()

    necklaces: list[tuple[int, int]] = []  # (vertex mask W, joint mask J)
    seen: dict[tuple[int, int], tuple[int, ...]] = {}

    def walk(at: int, wmask: int, jmask: int, beads: tuple[int, ...]) -> None:
        if at == t_idx:
            key = (wmask, jmask)
            if key in seen and seen[key] != beads:
                raise AssertionError("necklace decomposition not unique")
            if key not in seen:
                seen[key] = beads
                necklaces.append(key)
            return
        for b, c in beads_from.get(at, []):
            walk(b, wmask | c, jmask | (1 << b), beads + (c,))

    if s_idx == t_idx:
        if (1 << s_idx) in k.chains:
            necklaces.append((1 << s_idx, 1 << s_idx))
    else:
        walk(s_idx, 1 << s_idx, 1 << s_idx, ())

    simplices: dict[int, list[Flag]] = {}
    for wmask, jmask in necklaces:
        free = wmask & ~jmask
        for flag in _interior_flags(jmask, free, max_dim):
            simplices.setdefault(len(flag) - 1, []).append(flag)
    for v in simplices.values():
        v.sort()
    return FlagModel(p, s, t, simplices)


def _interior_flags(bottom: int, free: int, max_dim: int | None) -> list[Flag]:
    """Strict flags from bottom to bottom | free, filling in free bits."""
    out: list[Flag] = []

    def extend(flag: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(flag)
            return
        if max_dim is not None and len(flag) - 1 >= max_dim:
            return
        # next level adds any nonempty subset of the remaining bits
        sub = remaining
        while sub:
            extend(flag + (flag[-1] | sub,), remaining & ~sub)
            sub = (sub - 1) & remaining

    extend((bottom,), free)
    return out


def square_chain_poset(n: int, i: int, j: int):
    """Chains in the square [0..n] x [0,1] from (i, 0) to (j, 1).

    Elements are frozensets of (value, row) pairs ordered by refinement
    (adding points).  Returns (chain poset, comparison map, D-poset):
    the map sends a chain to its bottom-row values plus the first
    top-row value and is monotone from the opposite of the chain poset
    to the D-poset over [i..n].
    """
    if not 0 <= i <= j <= n:
        raise ValueError("need 0 <= i <= j <= n")
    window = interval_mask(i, j)
    chains: list[frozenset] = []
    images: dict[frozenset, int] = {}
    for bottom in subsets_of(window):
        if not bottom & (1 << i):
            continue
        for top in subsets_of(window):
            if not top & (1 << j):
                continue
            if max_bit(bottom) > min_bit(top):
                continue
            c = frozenset([(a, 0) for a in bit_list(bottom)]
                          + [(b, 1) for b in bit_list(top)])
            chains.append(c)
            images[c] = bottom | (1 << min_bit(top))
    chains.sort(key=lambda c: (len(c), sorted(c)))
    poset = Poset.from_relation(chains, lambda a, b: a <= b)
    dposet = build_d(interval_mask(i, n))
    cmp_map = MonotoneMap(poset.opposite(), dposet.poset, images)
    return poset, cmp_map, dposet
