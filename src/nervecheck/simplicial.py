"""Truncated simplicial sets listed by their simplices.

A backend supplies concrete hashable simplices per dimension together
with precomposition along monotone maps (alpha_star).  A simplex is
identified by itself: its faces are alpha_star along the cofaces, and
it is degenerate when it is a degeneracy of a simplex one dimension
down.  SimplexTable is the one record of a nerve: its constructor
checks closure (no duplicates, every degeneracy and every face
present) and records every simplex of every dimension up to its bound,
the degenerate ones as a set and the faces of each simplex, which are
read from that record afterwards; the nondegenerate cells in a fixed
order are sorted on first read.  Horn and boundary-sphere enumeration
work on the table, and map_by_dimension checks every comparison map
between two tables.  Markings belong to the backends:
marked(e) on edges and thin(t) on triangles.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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


class SimplexTable:
    """Simplicial set truncated at a dimension bound, checked for closure.

    simplices[k] lists every k-simplex, simplex_set[k] holds the same
    simplices and degenerate[k] the degenerate ones; faces[k] maps each
    k-simplex, k > 0, to its k+1 faces, each the listed simplex it
    equals.  cells[k] lists the nondegenerate ones in sort_key order.
    Raises ValueError when a dimension lists a simplex twice, misses a
    degeneracy of the dimension below, or has a face that is not listed.
    """

    def __init__(self, backend, dim: int):
        self.backend = backend
        self.dim = dim
        self.simplices, self.simplex_set, self.degenerate, self.faces = [], [], [], []
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
            self.simplices.append(sims)
            self.simplex_set.append(sset)
            self.degenerate.append(degenerate)
            self.faces.append(faces)
            below = {s: s for s in sims}

    @cached_property
    def cells(self) -> list[list]:
        return [sorted((s for s in sims if s not in degenerate), key=sort_key)
                for sims, degenerate in zip(self.simplices, self.degenerate)]

    def __contains__(self, s) -> bool:
        k = self.backend.dim_of(s)
        return k <= self.dim and s in self.simplex_set[k]

    def boundary(self, s) -> tuple:
        """Faces of s as recorded, or by alpha_star if s is not listed."""
        k = self.backend.dim_of(s)
        recorded = self.faces[k].get(s) if 0 < k <= self.dim else None
        if recorded is not None:
            return recorded
        return tuple(self.backend.alpha_star(s, delta(i, k)) for i in range(k + 1))

    def counts(self) -> list[int]:
        return [len(c) for c in self.cells]


def map_by_dimension(src: SimplexTable, tgt: SimplexTable, image, dim: int):
    """Map the simplices of src into tgt through dim, both tables built
    at least that high.

    Yields, per dimension, the source simplices, their images, the
    target's simplex set and whether faces commute: each recorded face
    of a source simplex, mapped by image, must be the target's recorded
    face of the image (alpha_star for an image the target lacks).
    """
    image_below: dict = {}
    for k in range(dim + 1):
        sims, faces = src.simplices[k], src.faces[k]
        images = [image(z) for z in sims]
        yield sims, images, tgt.simplex_set[k], k == 0 or all(
            tuple([image_below[f] for f in faces[z]]) == tgt.boundary(w)
            for z, w in zip(sims, images))
        if k < dim:
            image_below = dict(zip(sims, images))


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
        return (tuple([s[0][a] for a in alpha]),
                tuple([self.cell(s, a, b) for a, b in zip(alpha, alpha[1:])]))

    def cell(self, s, a: int, b: int):
        """The morphism of s from vertex a to vertex b, a <= b."""
        objs, mors = s
        if a == b:
            return self.cat.ident[objs[a]]
        if b == a + 1:
            return mors[a]
        return self.cat.compose_path(mors[a:b], at=objs[a])

    def compose(self, f, g):
        return self.cat.then(f, g)

    def marked(self, e) -> bool:
        """Isomorphisms are marked."""
        return self.cat.is_iso(e[1][0])

    def thin(self, t) -> bool:
        """Every triangle is thin."""
        return True

    def dim_of(self, s) -> int:
        return len(s[0]) - 1

