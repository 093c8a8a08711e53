"""Machine verdicts on contractibility of finite simplicial complexes.

Complexes here are abstract: a simplex is a strictly increasing tuple
of int vertex ids and the family is closed under nonempty subsets.
Producers hand in families closed by construction; generate interns and
closes outside input, refusing input that may close to more than
MAX_INPUT_FACES simplices.  The verdict pipeline removes dominated
vertices from the facet list (strong collapse); if more than one vertex
survives, integer homology and an edge-path-group triviality search run
on the strong core.  Homology works over Python ints, so no overflow
exists: unit pivots eliminated sparsely, then Smith normal form on the
residual row dicts in place (least-entry pivots, floor remainders), with
torsion as invariant factors; indexed Tietze search for the edge-path
group.  Each boundary matrix is eliminated along its shorter side: by
columns when most of its nonzero columns have at most two entries and
most of its rows do not, as in the top matrix of a closed surface, where
eliminating by rows would merge triangles into ever longer polygons.
Strong collapse preserves homotopy type, which keeps the matrices small.

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
    """Face-closed family of strictly increasing int tuples, stored as given."""

    def __init__(self, simplices: Iterable[tuple[int, ...]]):
        self.simplices = set(simplices)

    def by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for s in self.simplices:
            out.setdefault(len(s) - 1, []).append(s)
        for v in out.values():
            v.sort()
        return out

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)

    def is_empty(self) -> bool:
        return not self.simplices


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
    strata = cx.by_dim()
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
    present = set(cx.simplices)
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


def facets(cx: Complex) -> list[tuple[int, ...]]:
    """Simplices that are no codimension-1 face of another, sorted.

    Checks closure on the way, one dimension at a time: a missing
    codimension-1 face raises ValueError naming it.
    """
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for s in cx.simplices:
        by_len.setdefault(len(s), []).append(s)
    out: list[tuple[int, ...]] = []
    covered: set[tuple[int, ...]] = set()  # faces of the level above
    for k in sorted(by_len, reverse=True):
        level = by_len[k]
        out.extend(s for s in level if s not in covered)
        if k == 1:
            break
        covered = set(chain.from_iterable(map(combinations, level, repeat(k - 1))))
        missing = covered.difference(cx.simplices)
        if missing:
            f = min(missing)
            s = min(s for s in level if set(f) <= set(s))
            raise ValueError(f"face {f} of {s} is missing")
    out.sort()
    return out


@dataclass
class StrongCollapseResult:
    removed: int  # dominated vertices removed
    core: list[tuple[int, ...]]  # facets of the strong core, sorted
    dimension: int  # of the input, read off its facets

    @property
    def success(self) -> bool:
        return len(self.core) == 1 and len(self.core[0]) == 1


def strong_collapse(cx: Complex) -> StrongCollapseResult:
    """Remove dominated vertices from the facet list until none is left.

    A vertex v is dominated when the facets containing v share another
    vertex; its removal is a sequence of elementary collapses (Barmak and
    Minian, Strong homotopy types, nerves and collapses, DCG 47 (2012)).
    Facets are bitmasks over the vertices in increasing order.  Vertices
    are tried smallest first and tried again when a neighbour goes, so the
    surviving core does not depend on set iteration order.
    """
    tops = facets(cx)
    labels = sorted({v for f in tops for v in f})
    index = {v: i for i, v in enumerate(labels)}
    star: list[set[int]] = [set() for _ in labels]  # facet masks per vertex
    members: dict[int, tuple[int, ...]] = {}  # live facet mask -> vertex ids
    for f in tops:
        ids = tuple(map(index.__getitem__, f))
        m = sum(map((1).__lshift__, ids))
        members[m] = ids
        for i in ids:
            star[i].add(m)
    heap = list(range(len(labels)))
    queued = [True] * len(labels)
    removed = 0
    while heap:
        v = heapq.heappop(heap)
        queued[v] = False
        mine, bit = star[v], 1 << v
        # the running AND of v's facets only shrinks; stop once it is v alone
        if bit in accumulate(mine, and_):
            continue
        star[v] = set()
        removed += 1
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
            fewest = min(ids, key=lambda u: len(star[u]))
            if not any(h & g == g for h in star[fewest]):
                members[g] = ids
                for u in ids:
                    star[u].add(g)
            for u in ids:
                if not queued[u]:
                    queued[u] = True
                    heapq.heappush(heap, u)
    core = sorted(tuple(labels[i] for i in ids) for ids in members.values())
    return StrongCollapseResult(removed, core, max(map(len, tops), default=0) - 1)


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
    strata = cx.by_dim()
    vertices = [s[0] for s in strata.get(0, [])]
    edges = strata.get(1, [])
    triangles = strata.get(2, [])
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
    zero groups up to the dimension of cx, is the homology of cx.
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
    core = _close(strong.core) if strong.removed else cx
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


def complex_from_chains(chains: Iterable[int]) -> Complex:
    """Abstract complex of a subchain-closed family of chain masks."""
    return Complex(tuple(bits(c)) for c in chains)


def complex_from_json(data: dict) -> Complex:
    sims = data["simplices"]
    if not isinstance(sims, list) or any(
            not isinstance(s, list) or any(isinstance(v, (list, dict)) for v in s)
            for s in sims):
        raise ValueError('"simplices" must be an array of arrays of scalars')
    return generate(sims)
