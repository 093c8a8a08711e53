"""Combinatorial mapping-space models between elements of a D-poset.

Fix a subcomplex K of the nerve of a poset and two comparable elements
S, T.  A k-simplex of the mapping space is a strict flag
M0 c M1 c ... c Mk of chains from S to T such that for each pair of
consecutive elements a < b of M0 the segment of Mk between a and b
(endpoints included) is a chain of K.  Faces drop flag levels, so the
family is an abstract simplicial complex on the set of such chains.
flag_model builds its 1-skeleton and counts it in closed form
(flag_counts); its flags are listed only when something reads them.

The necklace oracle recomputes the same simplices along a different
route: sequences of beads (K-chains with matching endpoints) glued end
to end, then all interior flags between the joint set and the full
vertex set of the necklace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count, product
from math import comb
from operator import and_, or_
from typing import Iterator

from .bits import bit_list, bits, max_bit, min_bit, subsets_of
from .homotopy import Complex
from .oriental import build_d, interval_mask
from .poset import ChainSubcomplex, MonotoneMap, Poset

Flag = tuple[int, ...]


@dataclass
class FlagModel:
    """A mapping-space model between source and target, as a Complex.
    An untruncated flag model hands its Complex a graph, and its
    simplices are listed (clique_strata) only when they are read."""

    ambient: Poset
    source: int
    target: int
    complex: Complex

    @cached_property
    def simplices(self) -> dict[int, list[Flag]]:
        cx = self.complex
        return clique_strata(cx.labels, cx.graph) if cx.strata is None else cx.strata

    def counts(self) -> list[int]:
        return list(self.complex.counts)

    def vertices(self) -> list[int]:
        return list(self.complex.labels)

    def to_complex(self) -> Complex:
        """The model as a Complex: its graph and counts if untruncated,
        else its lists, which neither may change afterwards."""
        return self.complex

    def same_simplices(self, other: "FlagModel") -> bool:
        keys = set(self.simplices) | set(other.simplices)
        return all(sorted(self.simplices.get(k, [])) ==
                   sorted(other.simplices.get(k, [])) for k in keys)


def _edge_paths(k: ChainSubcomplex, s_idx: int, t_idx: int) -> list[int]:
    """Chains from S to T all of whose consecutive pairs are edges of K."""
    p = k.ambient
    if s_idx == t_idx:
        return [1 << s_idx] if (1 << s_idx) in k.chains else []
    interval = p.between(s_idx, t_idx)
    found: list[int] = []

    def walk(mask: int, last: int) -> None:
        if last == t_idx:
            found.append(mask)
            return
        for nxt in bits(p.up_masks[last] & interval & ~(1 << last)):
            if ((1 << last) | (1 << nxt)) in k.chains:
                walk(mask | (1 << nxt), nxt)

    walk(1 << s_idx, s_idx)
    return sorted(found)


def _bottoms(k: ChainSubcomplex, s: int, t: int) -> Iterator[tuple[int, list[int]]]:
    """Each vertex M0 of the model between S and T, with the sorted chains
    M that may top a flag over it (the unions of one K-chain per segment)."""
    p = k.ambient
    s_idx, t_idx = p.index[s], p.index[t]
    if not p.up_masks[s_idx] >> t_idx & 1:
        raise ValueError("source must be below target")
    for bottom in _edge_paths(k, s_idx, t_idx):
        tup = p.chain_tuple(bottom)
        per_segment = [k.segments[a, b] for a, b in zip(tup, tup[1:])]
        yield bottom, sorted({reduce(or_, c, bottom) for c in product(*per_segment)})


def flag_model(k: ChainSubcomplex, s: int, t: int,
               max_dim: int | None = None) -> FlagModel:
    """Mapping-space model between comparable vertices S and T of K.

    Its vertices are the bottoms b in ascending order, and up[b] masks
    the vertices of A(b) other than b: the 1-skeleton.  A flag from b
    is a strict chain in A(b), so the model is the clique complex of its
    1-skeleton exactly when, for each edge b -> x, every vertex of A(b)
    strictly above x lies in A(x).  That is checked here (_check_cliques)
    and a failure raises ValueError; given it, the vertices of A(b)
    strictly above x are up[b] & up[x], so up is a flag graph and
    clique_strata lists the flags.  An untruncated model is handed to
    its Complex as labels, graph and flag_counts, and no flag is listed
    here; a model cut at max_dim lists its flags through that dimension
    and carries no graph.
    """
    found = list(_bottoms(k, s, t))
    masks = [b for b, _ in found]
    index = {b: i for i, b in enumerate(masks)}
    # each chain of A(b) is an edge path of K, so itself a bottom
    up = [sum(map((1).__lshift__, map(index.__getitem__, admissible))) & ~(1 << i)
          for i, (_, admissible) in enumerate(found)]
    del found
    _check_cliques(masks, up)
    if max_dim is None:
        cx = Complex(labels=masks, graph=up, counts=flag_counts(k, s, t))
    else:
        cx = Complex(strata=clique_strata(masks, up, max_dim))
    return FlagModel(k.ambient, s, t, cx)


def _check_cliques(masks: list[int], up: list[int]) -> None:
    """Raise ValueError unless, for each edge b -> x, the vertices of A(b)
    strictly above x lie in A(x).  The vertices strictly above x are the
    AND, over x's elements, of the vertices holding each element."""
    holding: dict[int, int] = {}
    for i, m in enumerate(masks):
        for e in bits(m):
            holding[e] = holding.get(e, 0) | 1 << i
    # the vertices strictly above x outside A(x): an edge into x can fail
    # only where this is nonempty
    outside = [(reduce(and_, map(holding.__getitem__, bits(m))) ^ 1 << i) & ~up[i]
               for i, m in enumerate(masks)]
    some = sum(1 << j for j, o in enumerate(outside) if o)
    for i, b in enumerate(masks):
        for j in bits(up[i] & some):
            if up[i] & outside[j]:
                raise ValueError(f"flag model is not a clique complex: a vertex "
                                 f"of A({b}) above {masks[j]} is not in A({masks[j]})")


def clique_strata(labels: list[int], up: list[int],
                  top: int | None = None) -> dict[int, list[Flag]]:
    """The cliques of a flag graph through dimension top, as sorted strata.

    up holds upward neighbour masks over positions in the ascending
    labels.  A clique from i whose last vertex is j grows by up[i] & up[j],
    one level at a time, which lists every clique only in a flag graph: one
    where a vertex above a clique joined to its ends is joined to all of it,
    as _check_cliques proves of a flag model's graph.
    """
    strata: dict[int, list[Flag]] = {}
    for i, b in enumerate(labels):
        sups = {labels[j]: [labels[m] for m in bits(up[i] & up[j])]
                for j in bits(up[i])}
        sups[b] = [labels[j] for j in bits(up[i])]
        level: list[Flag] = [(b,)]
        for d in count():
            strata.setdefault(d, []).extend(level)
            if top is not None and d >= top:
                break
            if not (level := [f + (m,) for f in level for m in sups[f[-1]]]):
                break
    return strata


def flag_counts(k: ChainSubcomplex, s: int, t: int) -> list[int]:
    """The flags of flag_model(k, s, t) in each dimension, counted, not listed.

    A(b) is the product of its segments' chain families, each closed
    downwards, so a weak chain b <= M1 <= ... <= Mi in it is fixed by
    each segment's top chain and the step at which each interior element
    of that chain enters: W_b(i) = prod_j sum_m f_{j,m} i^m, where
    f_{j,m} counts segment j's K-chains with m interior elements.  One
    pass up the interval sums these polynomials over the edge paths b,
    each edge a -> b of K multiplying by its segment's f-vector; the
    sum's degree is the largest height of an A(b).  The strict chains
    from b are the binomial inverse S(d) = sum_i (-1)^(d-i) C(d, i) W(i)
    (Stanley, Enumerative Combinatorics I, 3.12).
    """
    p = k.ambient
    s_idx, t_idx = p.index[s], p.index[t]
    if not p.up_masks[s_idx] >> t_idx & 1:
        raise ValueError("source must be below target")
    # weak[b]: the coefficients of W summed over the edge paths from S to b
    weak: dict[int, Counter] = {}
    for b in sorted(bits(p.between(s_idx, t_idx)), key=p.topo_rank.__getitem__):
        poly = Counter({0: 1} if b == s_idx and (1 << b) in k.chains else ())
        for a, w in weak.items():  # earlier in a linear extension, so below b
            if (1 << a | 1 << b) in k.chains:
                f = Counter(c.bit_count() - 2 for c in k.segments.get((a, b), ()))
                for (m, x), (e, n) in product(w.items(), f.items()):
                    poly[m + e] += x * n
        weak[b] = poly
    at = [sum(x * i ** m for m, x in weak[t_idx].items())
          for i in range(max(weak[t_idx], default=-1) + 1)]
    return [sum((-1) ** (d - i) * comb(d, i) * at[i] for i in range(d + 1))
            for d in range(len(at))]


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
    if len(k.vertices()) > NECKLACE_MAX_VERTICES:
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
    return FlagModel(p, s, t, Complex(strata=simplices))


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
