"""Machine verdicts on contractibility of finite simplicial complexes.

Complexes here are abstract: a simplex is a strictly increasing tuple of
int vertex ids and the family is closed under nonempty subsets.  A
Complex holds its simplices as per-dimension strata, each the sorted
list of the distinct simplices of one dimension.  Flag models and order
complexes, proved clique complexes, hand in only labels, graph and
counts, and none of their simplices is listed here.  Other producers
hand in families closed by construction, grouped and sorted once, and
generate interns and closes outside input, refusing input that may
close to more than MAX_INPUT_FACES simplices.  facets walks the strata
from the top down and checks closure on the way: each level's set must
hold every face of the level above, and those faces are discarded from
it as they are generated, never held.  Strong collapse removes
dominated vertices on neighbourhood bitmasks of that graph, or of the
1-skeleton when a walk over its cliques meets the strata exactly (which
proves closure too), else on the facet list.  A vertex's mask is no
wider than a facet holding its largest neighbour, so these masks take at
most dimension + 1 times the facet path's bits.
If more than one vertex survives, homology and an edge-path-group search
run on the strong core.
Homology works over Python ints, so no overflow exists: unit pivots
eliminated sparsely, then Smith normal form on the residual row dicts in
place (least-entry pivots, floor remainders), with torsion as invariant
factors; indexed Tietze search for the edge-path group.  Each boundary
matrix is eliminated along its shorter side: by columns when most of its
nonzero columns have at most two entries and most of its rows do not, as
in the top matrix of a closed surface, where eliminating by rows would
merge triangles into ever longer polygons.  Strong collapse preserves
homotopy type, which keeps the matrices small.

Verdict semantics:
  Contractible      strong collapse reached a single vertex, or the
                    strong core has trivial fundamental group and zero
                    reduced homology (simply connected + acyclic
                    suffices for finite complexes by Whitehead's
                    theorem)
  NotContractible   some reduced homology group is nonzero
  Inconclusive      everything else; never claimed from a failed search
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
from math import gcd
from operator import and_
from typing import Hashable, Iterable, Sequence

from .bits import bits


class Complex:
    """Face-closed family of strictly increasing int tuples, by dimension.

    strata[d] is the sorted list of the distinct d-simplices, and no
    stratum is empty.  Outside simplices, in any order and with repeats,
    are grouped and sorted once, here.  A producer that already holds
    such lists, keyed by dimension, hands them in as strata; they are
    kept as they are, not copied or checked.  A producer that has proved
    its simplices to be the clique complex of a graph may instead hand in
    the ascending vertex labels, that graph as upward neighbour masks
    over positions in labels (bit j of graph[i], for j > i, marks the
    edge between the i-th and j-th vertices) and the number of simplices
    in each dimension, as flag models and order complexes do.  These are
    trusted, not checked, and strata is then None.
    """

    def __init__(self, simplices: Iterable[tuple[int, ...]] = (),
                 strata: dict[int, list[tuple[int, ...]]] | None = None,
                 graph: list[int] | None = None, labels: list[int] | None = None,
                 counts: list[int] | None = None):
        if labels is None:
            if strata is None:
                strata = {}
                for s in set(simplices):
                    strata.setdefault(len(s) - 1, []).append(s)
                strata = {d: sorted(strata[d]) for d in sorted(strata)}
            labels = [v for (v,) in strata.get(0, [])]
            counts = [len(strata.get(d, [])) for d in range(max(strata, default=-1) + 1)]
        self.strata, self.labels, self.counts, self.graph = strata, labels, counts, graph

    def dimension(self) -> int:
        return len(self.counts) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.counts))

    def __len__(self) -> int:
        return sum(self.counts)

    def is_empty(self) -> bool:
        return not self.counts


def smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, as invariant factors.

    The rows, {column: entry} dicts, are reduced in place until empty.
    Each step pivots on a nonzero entry of least absolute value.  Row
    operations bring the rest of its column to floor remainders, smaller
    than the pivot; then column operations, touching no other row, reduce
    the rest of the pivot row modulo the pivot.  A pivot row left with the
    pivot alone is one diagonal entry.  Each pivot rescans the matrix, so
    homology runs this only on the rows that _eliminate_units leaves.
    """
    diag: list[int] = []
    while rows := [row for row in rows if any(row.values())]:
        _, i, pc = min((abs(v), i, c) for i, row in enumerate(rows)
                       for c, v in row.items() if v)
        pivot = rows[i]
        p = pivot[pc]
        for row in rows:
            if row.get(pc) and row is not pivot:
                q = row[pc] // p
                for c, v in pivot.items():
                    row[c] = row.get(c, 0) - q * v
                    if not row[c]:
                        del row[c]
        if any(row.get(pc) for row in rows if row is not pivot):
            continue  # a remainder pivots next
        for c in [c for c in pivot if c != pc]:
            pivot[c] %= p
            if not pivot[c]:
                del pivot[c]
        if len(pivot) == 1:
            diag.append(abs(p))
            pivot.clear()
    return _invariant_factors(diag)


def _invariant_factors(diag: list[int]) -> list[int]:
    """Diagonal with each entry dividing the next, by gcd/lcm of pairs."""
    rest = sorted(d for d in diag if d != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(diag) - len(rest)) + rest


def _eliminate_units(rows: list[dict[int, int]],
                     cols: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Sparse elimination of unit pivots: their count and the rows left.

    cols holds the same entries by column; only its keys are read, so
    _eliminate_units(cols, rows) eliminates the transpose, which has the
    same rank and invariant factors.  A row operation whose pivot row has
    at most two entries never lengthens the row it updates, so homology
    passes as rows the side whose lines mostly have at most two entries.
    Rows are taken in order.  A row with a +-1 entry pivots on the one
    whose column has the fewest entries, ties to the smaller column id.
    Exact row operations clear that column from every other row (1/p = p
    for a unit p), and the pivot row and column are dropped: one invariant
    factor 1 each.  Passes repeat while some row left gains a unit entry,
    so the Smith normal form of rows is that many 1s followed by the one
    of the rows left, none of which has a unit entry (Dumas, Saunders and
    Villard, On efficient sparse integer matrix Smith normal form
    computations, J. Symb. Comput. 32 (2001)).  The rows are modified.
    """
    holders = [set(col) for col in cols]  # rows with an entry in each column
    units = 0
    pending = list(range(len(rows)))
    while True:
        left = []
        for r in pending:
            row = rows[r]
            pc = None
            for c, v in row.items():
                if v == 1 or v == -1:
                    n = len(holders[c])
                    if pc is None or n < fewest or n == fewest and c < pc:
                        pc, fewest = c, n
            if pc is None:
                left.append(r)
                continue
            p = row.pop(pc)
            for c in row:
                holders[c].discard(r)
            for r2 in holders[pc]:  # no row gains column pc again
                if r2 == r:
                    continue
                other = rows[r2]
                k = other.pop(pc) * p
                for c, v in row.items():
                    w = other.get(c, 0) - k * v
                    if w:
                        if c not in other:
                            holders[c].add(r2)
                        other[c] = w
                    else:
                        del other[c]
                        holders[c].discard(r2)
            units += 1
        left = [r for r in left if rows[r]]
        if len(left) == len(pending):
            return units, [rows[r] for r in left]
        pending = left


def _mostly_short(lines: list[dict[int, int]]) -> bool:
    """Whether most nonzero lines of a matrix have at most two entries."""
    lengths = [len(x) for x in lines if x]
    return 2 * sum(n <= 2 for n in lengths) > len(lengths)


@dataclass
class HomologySummary:
    """Reduced integer homology: betti numbers and torsion per degree."""

    betti: list[int]
    torsion: list[list[int]]

    def trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)

    def top_nonzero(self):
        for k in range(len(self.betti) - 1, -1, -1):
            if self.betti[k] or self.torsion[k]:
                return k, self.betti[k], self.torsion[k]
        return None


def homology(cx: Complex) -> HomologySummary:
    """Reduced homology with integer coefficients.

    Each boundary matrix, rows the d-simplices in order, first loses its
    unit pivots (_eliminate_units); Smith normal form runs on the rows
    left.  The matrix is transposed first when most of its nonzero columns
    have at most two entries and most of its rows do not: in a
    pseudo-manifold's top matrix each codimension-1 face lies on at most
    two facets, and by columns the elimination has no fill-in.  Torsion is
    reported as invariant factors.  A missing codimension-1 face raises
    ValueError naming it.
    """
    if cx.is_empty():
        return HomologySummary([], [])
    strata = cx.strata
    top = cx.dimension()
    index = {d: {s: i for i, s in enumerate(strata.get(d, []))} for d in range(top + 1)}

    def boundary(d: int) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """The boundary map from degree d to degree d-1, by rows (the
        d-simplices in order) and by columns (the (d-1)-simplices)."""
        faces = index[d - 1]
        rows = []
        cols: list[dict[int, int]] = [{} for _ in faces]
        for i, s in enumerate(strata.get(d, [])):
            row: dict[int, int] = {}
            for k in range(len(s)):
                f = s[:k] + s[k + 1:]
                try:
                    j = faces[f]
                except KeyError:
                    raise ValueError(f"face {f} of {s} is missing") from None
                row[j] = cols[j][i] = -1 if k & 1 else 1
            rows.append(row)
        return rows, cols

    ranks: dict[int, int] = {}
    torsions: dict[int, list[int]] = {}
    for d in range(1, top + 1):
        rows, cols = boundary(d)
        if _mostly_short(cols) and not _mostly_short(rows):
            rows, cols = cols, rows
        units, rest = _eliminate_units(rows, cols)
        diag = smith_diagonal(rest)
        ranks[d] = units + len(diag)
        torsions[d] = [v for v in diag if v > 1]
    betti = []
    torsion = []
    for d in range(top + 1):
        n_d = len(strata.get(d, []))
        b = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if d == 0:
            b -= 1  # reduced
        betti.append(b)
        torsion.append(torsions.get(d + 1, []))
    return HomologySummary(betti, torsion)


@dataclass
class CollapseResult:
    success: bool
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    critical: list[tuple[int, ...]]


def collapse(cx: Complex) -> CollapseResult:
    """Greedy elementary collapse, deterministic lexicographic tie-break.

    Free faces (exactly one remaining coface) are consumed smallest first.
    No verdict uses it: it is the independent oracle of strong_collapse.
    """
    present = set(chain.from_iterable(cx.strata.values()))
    cofaces: dict[tuple[int, ...], set[tuple[int, ...]]] = {s: set() for s in present}
    for s in present:
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                try:
                    cofaces[f].add(s)
                except KeyError:
                    raise ValueError(f"face {f} of {s} is missing") from None

    heap = [(len(s), s) for s in present if len(cofaces[s]) == 1]
    heapq.heapify(heap)
    pairs = []

    def drop(u):
        present.discard(u)
        if len(u) > 1:
            for f in combinations(u, len(u) - 1):
                links = cofaces[f]
                links.discard(u)
                if f in present and len(links) == 1:
                    heapq.heappush(heap, (len(f), f))

    while heap:
        _, s = heapq.heappop(heap)
        if s not in present or len(cofaces[s]) != 1:
            continue
        (tau,) = cofaces[s]
        drop(s)
        drop(tau)
        pairs.append((s, tau))
    critical = sorted(present)
    success = len(critical) == 1 and len(critical[0]) == 1
    return CollapseResult(success, pairs, critical)


def _faces(level: list[tuple[int, ...]], d: int) -> Iterable[tuple[int, ...]]:
    """The d-dimensional faces of the (d+1)-simplices of level, with repeats."""
    return chain.from_iterable(map(combinations, level, repeat(d + 1)))


def facets(cx: Complex) -> list[tuple[int, ...]]:
    """Simplices that are no codimension-1 face of another, sorted.

    Walks the strata from the top dimension down and checks closure on
    the way: the set of each level must contain every codimension-1 face
    of the level above, and those faces are then discarded from it, so
    what is left are the level's facets.  The faces are generated twice,
    once for each pass, and never held.  A missing one raises ValueError
    naming the least missing face and the least simplex containing it.
    """
    out: list[tuple[int, ...]] = []
    above: list[tuple[int, ...]] = []
    for d in range(cx.dimension(), -1, -1):
        level = cx.strata.get(d, [])
        present = set(level)
        if not present.issuperset(_faces(above, d)):
            f = min(set(_faces(above, d)).difference(present))
            s = min(s for s in above if set(f) <= set(s))
            raise ValueError(f"face {f} of {s} is missing")
        present.difference_update(_faces(above, d))
        out += present
        above = level
    out.sort()
    return out


@dataclass
class StrongCollapseResult:
    removed: int  # dominated vertices removed
    core: list[tuple[int, ...]]  # facets of the strong core, sorted
    dimension: int  # of the input

    @property
    def success(self) -> bool:
        return len(self.core) == 1 and len(self.core[0]) == 1


def strong_collapse(cx: Complex) -> StrongCollapseResult:
    """Remove dominated vertices until none is left.

    A vertex v is dominated when the facets containing v share another
    vertex; its removal is a sequence of elementary collapses (Barmak and
    Minian, Strong homotopy types, nerves and collapses, DCG 47 (2012)).
    Vertices are tried smallest first and tried again when a neighbour
    goes, so the surviving core does not depend on set iteration order.
    On a clique complex v is dominated iff the closed neighbourhoods over
    N[v] share another vertex, and the core is the maximal cliques left;
    there v is tried again only when a neighbour goes at or below the one
    where its last test stopped.  No other removal can unblock v, so the
    vertices go in the order that retrying every neighbour gives.
    The upward neighbour masks are cx.graph when its producer handed them
    in, else _clique_graph's; _closed closes a copy of them, and a complex
    the walk refuses is collapsed on its facets.
    """
    labels = cx.labels
    index = {v: i for i, v in enumerate(labels)}
    up = _clique_graph(cx.strata, index) if cx.graph is None else list(cx.graph)
    drop, core = _on_facets(cx, index) if up is None else _on_graph(_closed(up))
    heap = list(range(len(labels)))
    queued = [True] * len(labels)
    removed = 0
    while heap:
        v = heapq.heappop(heap)
        queued[v] = False
        if (near := drop(v)) is None:  # else v went: try near again
            continue
        removed += 1
        for u in near:
            if not queued[u]:
                queued[u] = True
                heapq.heappush(heap, u)
    core = sorted(tuple(labels[i] for i in ids) for ids in core())
    return StrongCollapseResult(removed, core, cx.dimension())


def _clique_graph(strata: dict, index: dict[int, int]) -> list[int] | None:
    """Upward neighbour masks by vertex id, as Complex.graph holds them, if
    the strata are exactly the clique complex of their 1-skeleton, else
    None.  A depth-first walk over those masks lists the cliques by
    increasing ids, each dimension in lexicographic order, and stops at
    the first that is not the next simplex of its stratum.  Faces of
    cliques are cliques, so meeting every stratum to its end proves closure.
    """
    n = len(index)
    up = [0] * n
    levels = [strata.get(d, []) for d in range(max(strata, default=-1) + 2)]
    ends = [0] * len(levels)  # the next simplex to meet in each stratum

    def walk(prefix: tuple[int, ...], cand: int, d: int) -> bool:
        level, k = levels[d], ends[d]
        while cand:
            j = (low := cand & -cand).bit_length() - 1
            cand ^= low
            if level[k] != (s := prefix + levels[0][j]):  # IndexError past the end
                return False
            k += 1
            if (c := cand & up[j]) and not walk(s, c, d + 1):
                return False
        ends[d] = k
        return True

    try:  # KeyError: an edge on no vertex; IndexError: no strata at all
        for a, b in levels[1]:
            up[index[a]] |= 1 << index[b]
        if not walk((), (1 << n) - 1, 0) or ends != list(map(len, levels)):
            return None
    except (KeyError, IndexError):
        return None
    return up


def _closed(up: list[int]) -> list[int]:
    """up, upward neighbour masks, made closed neighbourhoods in place."""
    for i in reversed(range(len(up))):  # up[i] gains bits below i only
        for j in bits(up[i]):
            up[j] |= 1 << i
        up[i] |= 1 << i
    return up


def _on_graph(nbr: list[int]):
    """strong_collapse's drop and core on closed neighbourhood masks.

    A failed test of v stops at the neighbour stop[v] where the running
    AND of N[u], over N[v] in ascending order, becomes {v}.  Masks only
    shrink, so that AND stays {v} until a neighbour at or below stop[v]
    goes, and drop hands back only the neighbours it may have unblocked.
    """
    stop = [-1] * len(nbr)  # a vertex with no neighbour is never unblocked

    def drop(v: int) -> list[int] | None:
        bit, common, near = 1 << v, nbr[v], []
        for u in bits(common ^ bit):
            if (common := common & nbr[u]) == bit:
                stop[v] = u
                return None
            near.append(u)
        if not near:  # no other vertex can dominate an isolated one
            return None
        nbr[v] = 0
        unblocked = []
        for u in near:
            nbr[u] ^= bit
            if v <= stop[u]:
                unblocked.append(u)
        return unblocked

    def cliques(ids: tuple[int, ...], common: int):
        if common.bit_count() == len(ids):  # no vertex extends the clique
            yield ids
        for j in bits(common >> (ids[-1] + 1) << (ids[-1] + 1)):
            yield from cliques(ids + (j,), common & nbr[j])

    return drop, lambda: chain.from_iterable(
        cliques((v,), m) for v, m in enumerate(nbr) if m)


def _on_facets(cx: Complex, index: dict[int, int]):
    """strong_collapse's drop and core on facet bitmasks."""
    tops = facets(cx)  # checks closure, so index names every vertex
    star: list[set[int]] = [set() for _ in index]  # facet masks per vertex
    members: dict[int, tuple[int, ...]] = {}  # live facet mask -> vertex ids
    for f in tops:
        ids = tuple(map(index.__getitem__, f))
        m = sum(map((1).__lshift__, ids))
        members[m] = ids
        for i in ids:
            star[i].add(m)

    def drop(v: int) -> list[int] | None:
        mine, bit = star[v], 1 << v
        # the running AND of v's facets only shrinks; stop once it is v alone
        if bit in accumulate(mine, and_):
            return None
        star[v] = set()
        shrunk = []
        for m in mine:
            ids = members.pop(m)
            for u in ids:
                if u != v:
                    star[u].discard(m)
            shrunk.append((m ^ bit, tuple(u for u in ids if u != v)))
        # F - v is kept unless a facet without v contains it; two shrunk
        # facets never contain one another, since their originals did not
        for g, ids in shrunk:
            smallest_star = min(map(star.__getitem__, ids), key=len)
            if g not in map(g.__and__, smallest_star):
                members[g] = ids
                for u in ids:
                    star[u].add(g)
        return [u for _, ids in shrunk for u in ids]

    return drop, members.values


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def pi1_trivial(cx: Complex) -> bool | None:
    """Try to prove the edge-path group trivial by greedy Tietze moves.

    Each move takes the shortest, then lexicographically least, relator
    of length 1, or of length 2 in two distinct generators, and
    substitutes for its first generator.  Relators are indexed by the
    generators they contain and the eligible ones wait in a heap, so a
    move rewrites only the relators that contain its generator.  Returns
    True only when every generator is eliminated; never claims
    nontriviality (that is homology's job through the abelianization).
    A missing face in the 2-skeleton raises ValueError naming it.
    """
    vertices = [s[0] for s in cx.strata.get(0, [])]
    edges = cx.strata.get(1, [])
    triangles = cx.strata.get(2, [])
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for e in edges:
        for v in e:
            if v not in adj:
                raise ValueError(f"face {(v,)} of {e} is missing")
        a, b = e
        adj[a].append(b)
        adj[b].append(a)
    present = set(edges)
    for t in triangles:
        for f in combinations(t, 2):
            if f not in present:
                raise ValueError(f"face {f} of {t} is missing")
    if not vertices:
        return None
    root = vertices[0]
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for u in order:
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                order.append(v)
    if len(parent) != len(vertices):
        return None  # disconnected; homology already reports this
    tree = {tuple(sorted((v, p))) for v, p in parent.items() if p is not None}
    gen_of: dict[tuple[int, int], int] = {}
    for e in edges:
        if e not in tree:
            gen_of[e] = len(gen_of) + 1

    def letter(u, v):
        """Generator letter for the oriented step u -> v, 0 for tree edges."""
        e = (u, v) if u < v else (v, u)
        g = gen_of.get(e, 0)
        if g == 0:
            return 0
        return g if (u, v) == e else -g

    relators: set[tuple[int, ...]] = set()
    by_gen: dict[int, set[tuple[int, ...]]] = {}
    short: list[tuple[int, tuple[int, ...]]] = []  # heap of eligible relators

    def add(r):
        if not r or r in relators:
            return
        relators.add(r)
        for x in r:
            by_gen.setdefault(abs(x), set()).add(r)
        if len(r) == 1 or (len(r) == 2 and abs(r[0]) != abs(r[1])):
            heapq.heappush(short, (len(r), r))

    for a, b, c in triangles:
        add(_cyclic_reduce(tuple(x for x in (letter(a, b), letter(b, c), -letter(a, c))
                                 if x)))

    live = set(range(1, len(gen_of) + 1))
    while live and short:
        _, r = heapq.heappop(short)
        if r not in relators:
            continue  # rewritten since it was queued
        if len(r) == 1:
            g, repl = abs(r[0]), ()
        else:
            # x y = 1; solve for the first letter's generator
            x, y = r
            g, repl = (x, (-y,)) if x > 0 else (-x, (y,))
        live.discard(g)
        touched = by_gen.pop(g)
        for w in touched:
            relators.discard(w)
            for x in w:
                if abs(x) != g:
                    by_gen[abs(x)].discard(w)
        inverse = tuple(-y for y in reversed(repl))
        for w in touched:
            add(_cyclic_reduce(tuple(chain.from_iterable(
                repl if x == g else inverse if x == -g else (x,) for x in w))))
    if not live:
        return True
    return None


@dataclass
class Verdict:
    """Outcome of a contractibility check with its certificate."""

    status: str  # Contractible | NotContractible | Inconclusive
    method: str
    detail: dict
    homology: HomologySummary  # of the input, degrees 0..its dimension


def contractibility_verdict(cx: Complex) -> Verdict:
    """Strong collapse; else homology and pi_1 on the strong core.

    The core is homotopy equivalent to cx, so its homology, padded with
    zero groups up to the dimension of cx, is the homology of cx.  It is
    closed from its facets unless cx holds strata and no vertex went.
    """
    if cx.is_empty():
        return Verdict("NotContractible", "empty",
                       {"reason": "empty complex is not contractible"},
                       HomologySummary([], []))
    strong = strong_collapse(cx)
    top = strong.dimension
    zero = HomologySummary([0] * (top + 1), [[] for _ in range(top + 1)])
    if strong.success:
        return Verdict("Contractible", "strong-collapse",
                       {"removed": strong.removed, "vertex": strong.core[0][0]}, zero)
    # the core keeps the input's labels: the Tietze search depends on them
    core = _close(strong.core) if strong.removed or cx.strata is None else cx
    h = homology(core)
    d = len(h.betti)
    h = HomologySummary(h.betti + zero.betti[d:], h.torsion + zero.torsion[d:])
    cells = {"core_cells": len(core)}
    if not h.trivial():
        k, b, t = h.top_nonzero()
        return Verdict("NotContractible", "homology",
                       {"degree": k, "betti": b, "torsion": t, **cells}, h)
    if pi1_trivial(core):
        return Verdict("Contractible", "acyclic-simply-connected", cells, h)
    return Verdict("Inconclusive", "pi1-unresolved", cells, h)


# Largest outside input generate closes, by the sum of 2^|s| - 1 over its
# distinct simplices: an upper bound on the closed size, known before
# closing.  At the bound, homology --input takes ~4.7 s and 175 MB peak RSS
# on the 19-vertex simplex (524,287 faces) and ~4.5 s and 323 MB on a
# 193 x 193 torus (521,486 by the sum); a 270 x 270 torus, at twice the
# bound, takes 949 MB, and one 24-vertex simplex (16.7M faces) runs out of
# memory under a 1.5 GB cap.
MAX_INPUT_FACES = 2 ** 19


def generate(simplices: Iterable[Sequence[Hashable]]) -> Complex:
    """Close outside input under faces; labels become ids by first appearance.

    Input that may close to more than MAX_INPUT_FACES simplices raises
    ValueError before anything is closed.
    """
    labels: dict[Hashable, int] = {}
    family: set[tuple[int, ...]] = set()
    for s in simplices:
        t = tuple(sorted(labels.setdefault(v, len(labels)) for v in s))
        if len(set(t)) != len(t):
            raise ValueError("repeated vertex in simplex")
        if t:
            family.add(t)
    size = sum(2 ** len(t) - 1 for t in family)
    if size > MAX_INPUT_FACES:
        raise ValueError(f"its simplices have up to {size} faces, "
                         f"more than {MAX_INPUT_FACES}")
    return _close(family)


def _close(family: Iterable[tuple[int, ...]]) -> Complex:
    """Complex of strictly increasing int tuples and all their nonempty faces."""
    family = set(family)
    stack = list(family)
    while stack:
        s = stack.pop()
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                if f not in family:
                    family.add(f)
                    stack.append(f)
    return Complex(family)


def complex_from_json(data: dict) -> Complex:
    sims = data["simplices"]
    if not isinstance(sims, list) or any(
            not isinstance(s, list) or any(isinstance(v, (list, dict)) for v in s)
            for s in sims):
        raise ValueError('"simplices" must be an array of arrays of scalars')
    return generate(sims)
