"""Truncated simplicial sets listed by their simplices.

A backend supplies concrete hashable simplices per dimension together
with precomposition along monotone maps (alpha_star).  A simplex is
identified by itself: its faces are alpha_star along the cofaces, and
it is degenerate when it is a degeneracy of a simplex one dimension
down.  The table keeps every simplex of every dimension up to its
bound, the degenerate ones as a set, the faces of each simplex, and
the nondegenerate cells in a fixed order; horn and boundary-sphere
enumeration work on the lists.

Closure validation (no duplicates, every degeneracy and every face
present) is the function closed_simplices; the table calls it, and a
comparison that needs only the simplex lists of a backend calls it
without building a table.  It records the faces it computes, and
faces are read from that record afterwards.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

Alpha = tuple[int, ...]


@lru_cache(maxsize=None)
def delta(i: int, n: int) -> Alpha:
    """Coface [n-1] -> [n] skipping i."""
    return tuple(j for j in range(n + 1) if j != i)


@lru_cache(maxsize=None)
def codegeneracy(j: int, n: int) -> Alpha:
    """Codegeneracy [n+1] -> [n] repeating j."""
    return tuple(min(k, j) for k in range(j + 1)) + tuple(
        k - 1 for k in range(j + 1, n + 2))


def monotone_surjections(k: int, j: int) -> list[Alpha]:
    """Weakly increasing surjections [k] -> [j]."""
    if j > k or j < 0:
        return []
    out = []
    for steps in combinations(range(k), j):
        vals, v = [], 0
        for pos in range(k + 1):
            vals.append(v)
            if pos in steps:
                v += 1
        out.append(tuple(vals))
    return out


def sort_key(x):
    if isinstance(x, tuple):
        return (2, tuple(sort_key(y) for y in x))
    if isinstance(x, str):
        return (1, x)
    return (0, repr(x))


def closed_simplices(backend, dim: int) -> list[tuple[list, set, set, dict]]:
    """Each dimension's simplices, their set, the degenerate ones and faces.

    faces maps each k-simplex, k > 0, to its k+1 faces, each the listed
    simplex it equals.  Raises ValueError when a dimension lists a
    simplex twice, misses a degeneracy of the dimension below, or has a
    face that is not listed.
    """
    out: list[tuple[list, set, set, dict]] = []
    below: dict = {}
    for k in range(dim + 1):
        sims = list(backend.simplices(k))
        sset = set(sims)
        if len(sset) != len(sims):
            raise ValueError(f"duplicate simplices in dimension {k}")
        degenerate = set()
        faces: dict = {}
        if k > 0:
            for t in below:
                for j in range(k):
                    degenerate.add(backend.alpha_star(t, codegeneracy(j, k - 1)))
            if not degenerate <= sset:
                raise ValueError(f"degeneracies missing in dimension {k}")
            cofaces = [delta(i, k) for i in range(k + 1)]
            for s in sims:
                fs = tuple([below.get(backend.alpha_star(s, d)) for d in cofaces])
                if None in fs:
                    raise ValueError(f"face missing below dimension {k}")
                faces[s] = fs
        out.append((sims, sset, degenerate, faces))
        below = {s: s for s in sims}
    return out


class SimplexTable:
    """Simplicial set truncated at a dimension bound.

    simplices[k] lists every k-simplex, simplex_set[k] holds the same
    simplices and degenerate[k] the degenerate ones; faces[k] maps each
    k-simplex to its faces as the closure check recorded them, and
    cells[k] lists the nondegenerate ones in sort_key order.  marked
    and thin hold the nondegenerate edges and triangles the rules pick;
    a degenerate edge or triangle counts as marked or thin.
    """

    def __init__(self, backend, dim: int, marked_rule=None, thin_rule=None):
        self.backend = backend
        self.dim = dim
        closed = closed_simplices(backend, dim)
        (self.simplices, self.simplex_set, self.degenerate,
         self.faces) = map(list, zip(*closed))
        self.cells = [sorted((s for s in sims if s not in degenerate), key=sort_key)
                      for sims, _, degenerate, _ in closed]
        self.marked: frozenset = frozenset(
            e for e in self.cells[1] if marked_rule(e)
        ) if marked_rule and dim >= 1 else frozenset()
        self.thin: frozenset = frozenset(
            t for t in self.cells[2] if thin_rule(t)
        ) if thin_rule and dim >= 2 else frozenset()

    def __contains__(self, s) -> bool:
        k = self.backend.dim_of(s)
        return k <= self.dim and s in self.simplex_set[k]

    def face(self, s, i: int):
        return self.boundary(s)[i]

    def boundary(self, s) -> tuple:
        k = self.backend.dim_of(s)
        return boundary_of(self.backend, self.faces[k] if 0 < k <= self.dim else {}, s)

    def edge_marked(self, e) -> bool:
        return e in self.degenerate[1] or e in self.marked

    def triangle_thin(self, t) -> bool:
        return t in self.degenerate[2] or t in self.thin

    def counts(self) -> list[int]:
        return [len(c) for c in self.cells]


def boundary_of(backend, faces: dict, s) -> tuple:
    """Faces of s as recorded in faces, or by alpha_star if s is not there."""
    recorded = faces.get(s)
    if recorded is not None:
        return recorded
    k = backend.dim_of(s)
    return tuple(backend.alpha_star(s, delta(i, k)) for i in range(k + 1))


def _compatible_tuples(table: SimplexTable, n: int,
                       positions: list[int]) -> list[dict]:
    """Assignments position -> (n-1)-simplex with matching shared faces.

    For j < k in positions the faces must satisfy d_j(x_k) = d_{k-1}(x_j).
    """
    sims = table.simplices[n - 1]
    fv = {r: table.boundary(r) for r in sims}
    p0 = positions[0]
    by_first: dict = {}
    for r in sims:
        by_first.setdefault(fv[r][p0], []).append(r)
    out: list[dict] = []
    partial: dict = {}

    def place(t: int) -> None:
        if t == len(positions):
            out.append(dict(partial))
            return
        k = positions[t]
        cands = sims if t == 0 else by_first.get(fv[partial[p0]][k - 1], [])
        for r in cands:
            if all(fv[r][j] == fv[partial[j]][k - 1] for j in positions[1:t]):
                partial[k] = r
                place(t + 1)
                del partial[k]

    place(0)
    return out


def horn_fill_check(table: SimplexTable, n: int, i: int) -> dict:
    """Enumerate all inner-horn tuples and search for fillers."""
    if not 0 < i < n:
        raise ValueError("only inner horns are checked")
    if table.dim < n:
        raise ValueError("table not built high enough")
    positions = [j for j in range(n + 1) if j != i]
    horns = _compatible_tuples(table, n, positions)
    by_faces: dict[tuple, list] = {}
    for y, faces in table.faces[n].items():
        key = tuple(faces[j] for j in positions)
        by_faces.setdefault(key, []).append(y)
    filled = 0
    unfilled = []
    filler_counts: dict[int, int] = {}
    for horn in horns:
        key = tuple(horn[j] for j in positions)
        fillers = by_faces.get(key, [])
        filler_counts[len(fillers)] = filler_counts.get(len(fillers), 0) + 1
        if fillers:
            filled += 1
        elif len(unfilled) < 5:
            unfilled.append(key)
    return {
        "n": n, "i": i,
        "horns": len(horns),
        "filled": filled,
        "all_filled": filled == len(horns),
        "filler_counts": dict(sorted(filler_counts.items())),
        "unfilled_examples": unfilled,
    }


def sphere_maps(table: SimplexTable, n: int) -> list[dict]:
    """Maps from the boundary of the n-simplex: n+1 compatible faces."""
    return _compatible_tuples(table, n, list(range(n + 1)))


class ComplexBackend:
    """Simplicial set generated by an abstract simplicial complex.

    Simplices are weakly increasing vertex tuples whose support is a
    face of the complex.  The vertex order is the sorted label order.
    """

    def __init__(self, faces):
        # faces: iterable of vertex tuples, closed under nonempty subsets
        self.faces = {tuple(sorted(set(f))) for f in faces}
        for f in self.faces:
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                if sub and sub not in self.faces:
                    raise ValueError("face family not closed")

    def simplices(self, k: int) -> list:
        out = []
        for f in sorted(self.faces, key=sort_key):
            m = len(f) - 1
            if m > k:
                continue
            for alpha in monotone_surjections(k, m):
                out.append(tuple(f[a] for a in alpha))
        return out

    def alpha_star(self, s, alpha: Alpha):
        return tuple(s[a] for a in alpha)

    def dim_of(self, s) -> int:
        return len(s) - 1


class CategoryNerveBackend:
    """Nerve of a finite category; simplices are composable chains."""

    def __init__(self, cat):
        self.cat = cat
        self._restricted: dict = {}

    def simplices(self, k: int) -> list:
        out = []

        def extend(objs, mors):
            if len(mors) == k:
                out.append((tuple(objs), tuple(mors)))
                return
            for f in self.cat.morphisms:
                if self.cat.src[f] == objs[-1]:
                    extend(objs + [self.cat.tgt[f]], mors + [f])

        for x in self.cat.objects:
            extend([x], [])
        return out

    def alpha_star(self, s, alpha: Alpha):
        key = (s, alpha)
        out = self._restricted.get(key)
        if out is None:
            out = self._restricted[key] = self._restrict(s, alpha)
        return out

    def _restrict(self, s, alpha: Alpha):
        objs, mors = s
        cat = self.cat
        new_mors = []
        a = alpha[0]
        for b in alpha[1:]:
            if b == a:
                new_mors.append(cat.ident[objs[a]])
            elif b == a + 1:
                new_mors.append(mors[a])
            else:
                new_mors.append(cat.compose_path(mors[a:b], at=objs[a]))
            a = b
        return (tuple([objs[a] for a in alpha]), tuple(new_mors))

    def dim_of(self, s) -> int:
        return len(s[0]) - 1


def nerve_table(cat, dim: int) -> SimplexTable:
    """Nerve of cat through dim, isomorphisms marked, every triangle thin."""
    return SimplexTable(CategoryNerveBackend(cat), dim,
                        marked_rule=lambda e: cat.is_iso(e[1][0]),
                        thin_rule=lambda t: True)
