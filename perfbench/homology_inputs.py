"""Seeded inputs for the homology-input workload, with their expected answers.

Every input is a closed 2-dimensional complex or a sphere, so greedy
collapse finds no free face and the verdict falls through to Smith normal
form (and, for the dunce hat, to the edge-path group search).  The
homotopy type of each kind is fixed, so the expected Betti numbers,
torsion and verdict are closed forms; the seed only changes the
triangulation (diagonal directions, stellar subdivisions) and the vertex
labels, never the size.

Surfaces are cut from a triangulated polygon in exact rational
coordinates, subdivided, and glued along the boundary by a side map.
The gluing is checked to be simplicial (no triangle loses a vertex, no
two cells become one unless they are glued boundary cells) before the
complex is emitted.

Run as a script to write one seed's inputs and answers as JSON files:

    python3 perfbench/homology_inputs.py --seed 7 --out perfbench/out/h7
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Point = tuple[Fraction, Fraction]

# (kind, size parameter, stellar subdivisions); one pass runs each once
PLAN = [
    ("torus", 5, 60),
    ("torus", 6, 60),
    ("klein", 6, 60),
    ("rp2", 6, 60),
    ("dunce", 5, 40),
    ("sphere", 5, 60),
    ("sphere", 3, 300),
]


def _square(k: int, rng: random.Random) -> list[tuple[Point, ...]]:
    tris = []
    for x in range(k):
        for y in range(k):
            a, b, c, d = [(Fraction(x + dx), Fraction(y + dy))
                          for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))]
            if rng.random() < 0.5:
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    return tris


def _triangle(size: int) -> list[tuple[Point, ...]]:
    tris = []
    for x in range(size):
        for y in range(size - x):
            p = (Fraction(x), Fraction(y))
            r = (Fraction(x + 1), Fraction(y))
            u = (Fraction(x), Fraction(y + 1))
            tris.append((p, r, u))
            if x + y + 1 < size:
                tris.append((r, (Fraction(x + 1), Fraction(y + 1)), u))
    return tris


def _barycentric(tris):
    out = []
    for t in tris:
        g = (sum(p[0] for p in t) / 3, sum(p[1] for p in t) / 3)
        for v in t:
            for w in t:
                if v != w:
                    m = ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)
                    out.append((v, m, g))
    return out


def _stellar(tris, count: int, rng: random.Random):
    tris = list(tris)
    for _ in range(count):
        a, b, c = tris.pop(rng.randrange(len(tris)))
        g = ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
        tris += [(a, b, g), (b, c, g), (a, c, g)]
    return tris


def _side_map(kind: str, k: int):
    """Canonical representative of a point under the boundary gluing."""
    k = Fraction(k)

    def square(p: Point) -> Point:
        x, y = p
        if kind == "torus":
            x, y = x % k, y % k
        elif kind == "klein":
            if x == k:
                x, y = Fraction(0), k - y
            y = y % k
        elif kind == "rp2":
            if y == k:
                x, y = k - x, Fraction(0)
            if x == k:
                x, y = Fraction(0), k - y
            if y == k:  # corner (k, 0) reflected onto (0, k)
                x, y = k - x, Fraction(0)
        return (x, y)

    def dunce(p: Point) -> Point:
        # sides (0,0)->(k,0), (k,0)->(0,k) and (0,0)->(0,k) all read "a"
        x, y = p
        if y == 0:
            t = x / k
        elif x + y == k:
            t = y / k
        elif x == 0:
            t = y / k
        else:
            return p
        return (t % 1, Fraction(-1))

    return dunce if kind == "dunce" else square


def _glue(tris, ident) -> list[tuple]:
    """Quotient triangles; raises unless the gluing is simplicial."""
    cls = {}
    for t in tris:
        for p in t:
            cls.setdefault(p, ident(p))
    faces: dict[frozenset, Point] = {}
    out = set()
    for t in tris:
        q = frozenset(cls[p] for p in t)
        if len(q) != 3 or q in out:
            raise ValueError("gluing is not simplicial")
        out.add(q)
        for v, w in combinations(t, 2):
            e = frozenset((cls[v], cls[w]))
            mid = ident(((v[0] + w[0]) / 2, (v[1] + w[1]) / 2))
            if faces.setdefault(e, mid) != mid:
                raise ValueError("gluing identifies two distinct edges")
    return [tuple(sorted(q)) for q in out]


def _sphere(d: int, subdivisions: int, rng: random.Random) -> list[tuple]:
    """Boundary of the d-simplex with seeded stellar subdivisions of facets."""
    facets = [tuple(f) for f in combinations(range(d + 1), d)]
    fresh = d + 1
    for _ in range(subdivisions):
        f = facets.pop(rng.randrange(len(facets)))
        facets += [tuple(x for x in f if x != drop) + (fresh,) for drop in f]
        fresh += 1
    return facets


def _expected(kind: str, dim: int) -> dict:
    betti = [0] * (dim + 1)
    torsion = [[] for _ in range(dim + 1)]
    if kind == "torus":
        betti[1], betti[2] = 2, 1
        verdict = {"status": "NotContractible", "method": "homology",
                   "degree": 2, "betti": 1, "torsion": []}
    elif kind == "klein":
        betti[1], torsion[1] = 1, [2]
        verdict = {"status": "NotContractible", "method": "homology",
                   "degree": 1, "betti": 1, "torsion": [2]}
    elif kind == "rp2":
        torsion[1] = [2]
        verdict = {"status": "NotContractible", "method": "homology",
                   "degree": 1, "betti": 0, "torsion": [2]}
    elif kind == "sphere":
        betti[dim] = 1
        verdict = {"status": "NotContractible", "method": "homology",
                   "degree": dim, "betti": 1, "torsion": []}
    else:
        verdict = {"status": "Contractible",
                   "method": "acyclic-simply-connected"}
    return {"betti": betti, "torsion": torsion, "verdict": verdict}


def _relabel(facets: list[tuple], rng: random.Random) -> list[list]:
    verts = sorted({v for f in facets for v in f}, key=repr)
    names = list(range(len(verts)))
    rng.shuffle(names)
    if rng.random() < 0.5:
        names = [f"v{n}" for n in names]
    label = dict(zip(verts, names))
    out = []
    for f in facets:
        simplex = [label[v] for v in f]
        rng.shuffle(simplex)
        out.append(simplex)
    rng.shuffle(out)
    return out


def make_inputs(seed: int) -> list[dict]:
    """One pass of inputs: name, {"simplices": ...} payload, expected answer."""
    rng = random.Random(seed)
    items = []
    for kind, size, extra in PLAN:
        if kind == "sphere":
            facets = _sphere(size, extra, rng)
            dim = size - 1
        else:
            # subdivide until no cell meets a glued side twice: once for
            # the square (its corners are glued), twice for the triangle
            cells = (_barycentric(_barycentric(_triangle(size)))
                     if kind == "dunce" else _barycentric(_square(size, rng)))
            facets = _glue(_stellar(cells, extra, rng), _side_map(kind, size))
            dim = 2
        items.append({"name": f"{kind}-{size}",
                      "input": {"simplices": _relabel(facets, rng)},
                      "expected": _expected(kind, dim)})
    return items


def write_inputs(seed: int, folder: Path) -> list[tuple[Path, dict]]:
    """Write one pass of inputs and expected.json; return (path, expected)."""
    folder.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, item in enumerate(make_inputs(seed)):
        path = folder / f"{idx:02d}-{item['name']}.json"
        path.write_text(json.dumps(item["input"]))
        written.append((path, item["expected"]))
    (folder / "expected.json").write_text(
        json.dumps({p.name: e for p, e in written}, indent=1))
    return written


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    written = write_inputs(args.seed, args.out)
    print(f"wrote {len(written)} inputs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
