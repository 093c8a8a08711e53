import importlib.util
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nervecheck import homotopy
from nervecheck.homotopy import (Complex, HomologySummary, _cyclic_reduce,
                                 _eliminate_units, collapse,
                                 complex_from_chains, complex_from_json,
                                 contractibility_verdict, facets, generate,
                                 homology, pi1_trivial, smith_diagonal,
                                 strong_collapse)
from nervecheck.horn import l_complex
from nervecheck.mapping import flag_model
from nervecheck.oriental import build_d, standard_interval
from nervecheck.poset import ChainSubcomplex, nerve_chains
from nervecheck.suites import _dp, _horn, _pairs


def full_simplex(n):
    return generate([tuple(range(n + 1))])


def sphere(n):
    return generate(list(combinations(range(n + 2), n + 1)))


def test_closure():
    cx = generate([(0, 1, 2)])
    assert len(cx) == 7
    assert cx.dimension() == 2


def test_euler_characteristic():
    assert full_simplex(3).euler_characteristic() == 1
    assert sphere(1).euler_characteristic() == 0
    assert sphere(2).euler_characteristic() == 2


def test_homology_simplex_trivial():
    for n in range(4):
        assert homology(full_simplex(n)).trivial()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homology_spheres(n):
    h = homology(sphere(n))
    assert h.betti[n] == 1
    assert all(h.betti[k] == 0 for k in range(n))
    assert all(not t for t in h.torsion)


def test_homology_disjoint_points():
    h = homology(Complex([(0,), (1,), (2,)]))
    assert h.betti[0] == 2  # reduced


def grid_surface(k, glue):
    """k x k grid of squares, each cut in two triangles, glued by glue(x, y)."""
    tris = []
    for x in range(k):
        for y in range(k):
            a, b, c, d = (glue(x, y), glue(x + 1, y), glue(x + 1, y + 1),
                          glue(x, y + 1))
            tris += [(a, b, c), (a, c, d)]
    return generate(tris)


def torus(k):
    return grid_surface(k, lambda x, y: (x % k, y % k))


def klein_bottle(k):
    # the side x = k is glued to x = 0 with y reversed
    return grid_surface(k, lambda x, y: (0, -y % k) if x == k else (x, y % k))


RP2 = [(0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
       (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def barycentric(facets):
    """Barycentric subdivision: one facet per ordering of a facet's vertices."""
    return generate([tuple(tuple(sorted(p[:k])) for k in range(1, len(p) + 1))
                     for f in facets for p in permutations(f)])


def test_homology_torus():
    h = homology(torus(3))
    assert h.betti == [0, 2, 1]
    assert all(not t for t in h.torsion)


def test_homology_of_a_six_by_six_torus_and_a_klein_bottle():
    cx = torus(6)
    assert (len(cx), cx.euler_characteristic()) == (36 + 108 + 72, 0)
    h = homology(cx)
    assert (h.betti, h.torsion) == ([0, 2, 1], [[], [], []])
    cx = klein_bottle(6)
    assert (len(cx), cx.euler_characteristic()) == (36 + 108 + 72, 0)
    h = homology(cx)
    assert (h.betti, h.torsion) == ([0, 1, 0], [[], [2], []])
    v = contractibility_verdict(cx)
    assert (v.status, v.detail["degree"], v.detail["torsion"]) == (
        "NotContractible", 1, [2])


def test_homology_projective_plane_torsion():
    # minimal 6-vertex triangulation
    h = homology(generate(RP2))
    assert h.betti == [0, 0, 0]
    assert h.torsion[1] == [2]


def test_collapse_simplex_succeeds():
    res = collapse(full_simplex(4))
    assert res.success
    assert len(res.critical) == 1 and len(res.critical[0]) == 1


def test_collapse_sphere_fails_with_core():
    res = collapse(sphere(1))
    assert not res.success
    assert len(res.critical) >= 3


def test_collapse_preserves_homology_cross_check():
    # on success the complex must have been acyclic to begin with
    cx = generate([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    res = collapse(cx)
    assert res.success
    assert homology(cx).trivial()


def test_pi1_trivial_on_disc():
    assert pi1_trivial(full_simplex(3)) is True
    cx = generate([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    assert pi1_trivial(cx) is True


def test_pi1_unresolved_on_circle():
    assert pi1_trivial(sphere(1)) is None


def test_verdicts():
    assert contractibility_verdict(full_simplex(2)).status == "Contractible"
    v = contractibility_verdict(sphere(1))
    assert v.status == "NotContractible"
    assert v.detail["degree"] == 1
    assert contractibility_verdict(Complex([])).status == "NotContractible"


def test_verdict_two_sphere_core():
    # no free face: the whole 2-sphere is the core, nonzero in top degree
    v = contractibility_verdict(sphere(2))
    assert v.status == "NotContractible"
    assert v.detail["degree"] == 2


# Zeeman's dunce hat, 8 vertices and 17 triangles: a triangle whose sides
# are glued along the word a a a^-1, each side cut as v - x - y - v, with
# five interior vertices 3..7.  Every edge lies in two or three triangles,
# so greedy collapse cannot start.
DUNCE_HAT = [(0, 1, 3), (0, 1, 4), (0, 1, 7), (0, 2, 4), (0, 2, 5), (0, 2, 6),
             (0, 3, 7), (0, 5, 6), (1, 2, 3), (1, 2, 5), (1, 2, 6), (1, 4, 5),
             (1, 6, 7), (2, 3, 4), (3, 4, 5), (3, 5, 6), (3, 6, 7)]


def test_verdict_dunce_hat_is_acyclic_and_simply_connected():
    cx = generate(DUNCE_HAT)
    assert len(cx.by_dim()[0]) == 8 and len(cx.by_dim()[1]) == 24
    assert not collapse(cx).success
    v = contractibility_verdict(cx)
    assert v.status == "Contractible"
    assert v.method == "acyclic-simply-connected"
    assert v.detail["core_cells"] == len(cx) == 49


def test_dunce_hat_strong_core_is_the_whole_complex():
    res = strong_collapse(generate(DUNCE_HAT))
    assert not res.success
    assert res.removed == 0 and len(res.core) == 17


# six triangles on five vertices, every edge of K5 in them: greedy
# collapse reaches a point, but no vertex is dominated
GREEDY_NOT_STRONG = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 4), (2, 3, 4)]


def test_greedy_collapsible_strong_core_is_settled_by_homology_and_pi1():
    cx = generate(GREEDY_NOT_STRONG)
    assert collapse(cx).success
    res = strong_collapse(cx)
    assert (res.removed, len(res.core)) == (0, 6)
    v = contractibility_verdict(cx)
    assert (v.status, v.method) == ("Contractible", "acyclic-simply-connected")
    assert v.detail == {"core_cells": len(cx)} and len(cx) == 21
    assert v.homology == homology(cx) == HomologySummary([0, 0, 0], [[], [], []])


def test_verdict_homology_is_padded_to_the_input_dimension():
    # a circle with a filled triangle hanging off a vertex: the strong
    # core is the 1-dimensional circle, the input is 2-dimensional
    cx = generate([(0, 1), (1, 2), (0, 2), (2, 3, 4)])
    res = strong_collapse(cx)
    assert res.removed and max(map(len, res.core)) == 2 and res.dimension == 2
    v = contractibility_verdict(cx)
    assert (v.status, v.method, v.detail["degree"]) == ("NotContractible", "homology", 1)
    assert v.homology == homology(cx) == HomologySummary([0, 1, 0], [[], [], []])


def presentation_complex(relators):
    """Triangulated presentation complex of a group with relators over 1, 2, ...

    Word letters are +-g.  One base vertex; generator g is a loop cut in
    three edges; each relator bounds a disc triangulated as a ring of
    fresh vertices around a fresh centre, so no two triangles share their
    vertex set and the boundary runs along the word.
    """
    gens = sorted({abs(x) for r in relators for x in r})
    loop = {g: ("base", (g, 1), (g, 2)) for g in gens}
    tris = []
    for k, word in enumerate(relators):
        path = ["base"]
        for x in word:
            steps = loop[abs(x)][1:] if x > 0 else loop[abs(x)][:0:-1]
            path += [*steps, "base"]
        rim = path[:-1]
        ring = [(k, "ring", j) for j in range(len(rim))]
        for j in range(len(rim)):
            a, b = rim[j], rim[(j + 1) % len(rim)]
            r, s = ring[j], ring[(j + 1) % len(rim)]
            tris += [(a, b, r), (b, r, s), ((k, "centre"), r, s)]
    return generate(tris)


# <s, t | s^3 = t^5 = (st)^2>: the binary icosahedral group of order 120,
# perfect, so its presentation complex is acyclic but not contractible
BINARY_ICOSAHEDRAL = [(1, 1, 1, -2, -2, -2, -2, -2), (1, 1, 1, -2, -1, -2, -1)]


def test_presentation_complex_of_binary_icosahedral_group():
    cx = presentation_complex(BINARY_ICOSAHEDRAL)
    assert cx.euler_characteristic() == 1
    assert homology(cx).trivial()
    assert not strong_collapse(cx).success
    assert not collapse(cx).success
    v = contractibility_verdict(cx)
    assert (v.status, v.method) == ("Inconclusive", "pi1-unresolved")


def test_presentation_complex_of_trivial_group_is_contractible():
    # <s, t | s t, s t^2> presents the trivial group: built the same way,
    # rings and centres included, the complex is contractible and settled
    v = contractibility_verdict(presentation_complex([(1, 2), (1, 2, 2)]))
    assert (v.status, v.method) == ("Contractible", "acyclic-simply-connected")


def test_smith_diagonal_returns_invariant_factors():
    assert smith_diagonal([{0: 2}, {1: 3}]) == [1, 6]
    assert smith_diagonal([{0: 4}, {1: 6}]) == [2, 12]


def test_torsion_of_a_presentation_complex_is_an_invariant_factor():
    # <a, b | a^2, b^3>: H_1 = Z/2 + Z/3 = Z/6
    h = homology(presentation_complex([(1, 1), (2, 2, 2)]))
    assert (h.betti, h.torsion) == ([0, 0, 0], [[], [6], []])


def test_generate_interns_closes_and_rejects():
    cx = generate([("b", "a"), (), ("c",)])
    assert cx.simplices == {(0,), (1,), (0, 1), (2,)}
    with pytest.raises(ValueError, match="repeated vertex"):
        generate([(0, 1, 0)])


def test_generate_bounds_the_faces_of_distinct_input_simplices(monkeypatch):
    monkeypatch.setattr(homotopy, "MAX_INPUT_FACES", 10)
    # 7 + 3 faces by the bound, a repeat counted once; 9 once closed
    assert len(generate([(0, 1, 2), (2, 1, 0), (2, 3)])) == 9
    with pytest.raises(ValueError, match="up to 13 faces, more than 10"):
        generate([(0, 1, 2), (2, 3), (3, 4)])


def test_collapse_rejects_unclosed_family():
    for check in (collapse, facets, contractibility_verdict, homology, pi1_trivial):
        with pytest.raises(ValueError, match=r"face \(0,\) of \(0, 1\) is missing"):
            check(Complex([(0, 1), (1,)]))
    with pytest.raises(ValueError, match=r"face \(1, 2\) of \(0, 1, 2\) is missing"):
        homology(Complex([(0,), (1,), (0, 1, 2)]))
    # a triangle edge missing from the family is not taken for a tree edge
    with pytest.raises(ValueError, match=r"face \(0, 2\) of \(0, 1, 2\) is missing"):
        pi1_trivial(Complex([(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]))


def test_facets_and_strong_collapse_of_a_simplex_and_a_cone():
    assert facets(full_simplex(3)) == [(0, 1, 2, 3)]
    res = strong_collapse(full_simplex(3))
    assert (res.removed, res.core) == (3, [(3,)])
    # cone over a circle: the apex dominates every rim vertex
    cone = generate([(9, 0, 1), (9, 1, 2), (9, 0, 2)])
    assert facets(cone) == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    v = contractibility_verdict(cone)
    assert (v.method, v.detail) == ("strong-collapse", {"removed": 3, "vertex": 3})


def test_strong_core_of_a_circle_is_the_circle():
    res = strong_collapse(sphere(1))
    assert (res.removed, res.core) == (0, [(0, 1), (0, 2), (1, 2)])


def test_theorem_grid_is_strong_and_greedy_collapsible():
    # the greedy collapse stays as the oracle of the strong tier
    for n in (2, 3, 4):
        for i in range(1, n):
            for s, t in _pairs(_dp(n), strict=False):
                cx = flag_model(_horn(n, i), s, t).to_complex()
                assert strong_collapse(cx).success, (n, i, s, t)
                assert collapse(cx).success, (n, i, s, t)


def assert_closed(family):
    """The family equals its own generate closure, vertex ids kept in order."""
    family = set(family)
    verts = sorted({v for s in family for v in s})
    rank = {v: k for k, v in enumerate(verts)}
    closed = generate([(v,) for v in verts] + sorted(family))
    assert closed.simplices == {tuple(rank[v] for v in s) for s in family}


def test_flag_models_are_closed():
    for n in (1, 2, 3):
        dp = build_d(standard_interval(n))
        p = dp.poset
        ks = [ChainSubcomplex(p, nerve_chains(p), validate=False)]
        ks += [l_complex(n, i, dp) for i in range(1, n)]
        for k in ks:
            for s in p.elements:
                for t in p.elements:
                    if p.less_eq(s, t):
                        assert_closed(flag_model(k, s, t).to_complex().simplices)


def test_poset_nerves_are_closed():
    for n in (1, 2, 3, 4):
        p = build_d(standard_interval(n)).poset
        assert_closed(complex_from_chains(nerve_chains(p)).simplices)


def test_verdict_on_poset_nerve():
    d3 = build_d(standard_interval(3))
    full = ChainSubcomplex(d3.poset, nerve_chains(d3.poset), validate=False)
    v = contractibility_verdict(complex_from_chains(full.chains))
    assert v.status == "Contractible"


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    sims = draw(st.sets(
        st.tuples(st.integers(0, n), st.integers(0, n), st.integers(0, n)),
        min_size=1, max_size=8))
    cleaned = [tuple(sorted(set(t))) for t in sims]
    return generate([c for c in cleaned if c])


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_euler_equals_alternating_betti_when_torsion_free(cx):
    h = homology(cx)
    if all(not t for t in h.torsion):
        # reduced betti: add back the rank-1 in degree 0
        alt = sum((-1) ** k * b for k, b in enumerate(h.betti)) + 1
        assert cx.euler_characteristic() == alt


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_collapse_success_implies_trivial_homology(cx):
    if collapse(cx).success:
        assert homology(cx).trivial()
        assert contractibility_verdict(cx).status == "Contractible"


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_collapse_cores_are_closed(cx):
    assert_closed(collapse(cx).critical)


def test_stuck_cores_are_closed():
    for cx in (sphere(1), sphere(2), generate(DUNCE_HAT)):
        assert_closed(collapse(cx).critical)


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_verdict_never_lies_against_homology(cx):
    v = contractibility_verdict(cx)
    h = homology(cx)
    if v.status == "Contractible":
        assert h.trivial()
    if v.status == "NotContractible" and not cx.is_empty():
        assert not h.trivial()


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_verdict_carries_the_homology_of_the_input(cx):
    assert contractibility_verdict(cx).homology == homology(cx)


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_strong_collapse_verdict_implies_trivial_homology(cx):
    v = contractibility_verdict(cx)
    assert (v.method == "strong-collapse") == strong_collapse(cx).success
    if v.method == "strong-collapse":
        assert homology(cx).trivial()


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.integers(min_value=0))
def test_verdict_rejects_a_family_with_a_face_removed(cx, pick):
    inner = sorted(cx.simplices.difference(facets(cx)))
    assume(inner)
    gone = inner[pick % len(inner)]
    with pytest.raises(ValueError, match="is missing"):
        contractibility_verdict(Complex(cx.simplices - {gone}))


def full_matrix_homology(cx):
    """Betti numbers and torsion from smith_diagonal on whole boundary matrices."""
    strata = cx.by_dim()
    top = cx.dimension()
    index = {d: {s: i for i, s in enumerate(strata.get(d, []))} for d in range(top + 1)}
    ranks, torsions = {}, {}
    for d in range(1, top + 1):
        rows = [{index[d - 1][s[:k] + s[k + 1:]]: (-1) ** k for k in range(len(s))}
                for s in strata.get(d, [])]
        diag = smith_diagonal(rows)
        ranks[d] = len(diag)
        torsions[d] = [v for v in diag if v > 1]
    betti = [len(strata.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0) - (d == 0)
             for d in range(top + 1)]
    return betti, [torsions.get(d + 1, []) for d in range(top + 1)]


def pi1_trivial_oracle(cx: Complex) -> bool | None:
    """The quadratic Tietze loop that pi1_trivial replaced, kept as its oracle."""
    strata = cx.by_dim()
    vertices = [s[0] for s in strata.get(0, [])]
    edges = strata.get(1, [])
    triangles = strata.get(2, [])
    if not vertices:
        return None
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
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

    relators: list[tuple[int, ...]] = []
    for a, b, c in triangles:
        w = tuple(x for x in (letter(a, b), letter(b, c), -letter(a, c)) if x)
        relators.append(_cyclic_reduce(w))

    live = set(range(1, len(gen_of) + 1))
    relators = [r for r in relators if r]

    def substitute(word, g, repl):
        out: list[int] = []
        for x in word:
            if x == g:
                out.extend(repl)
            elif x == -g:
                out.extend(-y for y in reversed(repl))
            else:
                out.append(x)
        return _cyclic_reduce(tuple(out))

    changed = True
    while changed and live:
        changed = False
        relators = sorted({r for r in (_cyclic_reduce(r) for r in relators) if r},
                          key=lambda r: (len(r), r))
        sub: tuple[int, tuple[int, ...]] | None = None
        for r in relators:
            if len(r) == 1:
                sub = (abs(r[0]), ())
                break
            if len(r) == 2 and abs(r[0]) != abs(r[1]):
                x, y = r
                # x y = 1; solve for the first letter's generator
                if x > 0:
                    sub = (x, (-y,))
                else:
                    sub = (-x, (y,))
                break
        if sub is None:
            break
        g, repl = sub
        live.discard(g)
        relators = [substitute(r, g, repl) for r in relators]
        relators = [r for r in relators if r]
        changed = True
    if not live:
        return True
    return None


def oracle_corpus():
    return [torus(3), klein_bottle(3), generate(RP2), generate(DUNCE_HAT),
            presentation_complex(BINARY_ICOSAHEDRAL),
            presentation_complex([(1, 2), (1, 2, 2)]), barycentric(RP2)]


@st.composite
def presentations(draw):
    """Presentation complexes of up to three relators in up to three generators."""
    letters = st.sampled_from([1, 2, 3, -1, -2, -3])
    words = st.lists(letters, min_size=1, max_size=4).map(_cyclic_reduce).filter(bool)
    return presentation_complex(draw(st.lists(words, min_size=1, max_size=3)))


def assert_homology_matches_full_matrix(cx):
    h = homology(cx)
    assert (h.betti, h.torsion) == full_matrix_homology(cx)


def test_homology_matches_full_matrix_smith_on_the_corpus():
    for cx in oracle_corpus():
        assert_homology_matches_full_matrix(cx)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_complexes(), presentations()))
def test_homology_matches_full_matrix_smith(cx):
    assert_homology_matches_full_matrix(cx)


def test_pi1_matches_the_quadratic_loop_on_the_corpus():
    answers = [pi1_trivial(cx) for cx in oracle_corpus()]
    assert answers == [pi1_trivial_oracle(cx) for cx in oracle_corpus()]
    assert answers == [None, None, None, True, None, True, None]


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_complexes(), presentations()))
def test_pi1_matches_the_quadratic_loop(cx):
    assert pi1_trivial(cx) == pi1_trivial_oracle(cx)


def by_columns(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


@st.composite
def sparse_matrices(draw):
    """Up to 7 x 7, mostly zero, with non-unit entries that leave torsion."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 4, -6])
    rows = [{c: v for c in range(ncols) if (v := draw(entry))} for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example(([{0: 2, 1: 4}, {0: 4, 1: 2}], 2))  # Z/2 + Z/6
@example(([{0: 1, 1: 1, 2: 2}, {0: 1, 1: -1}, {2: 2}], 3))
def test_eliminating_a_matrix_or_its_transpose_keeps_the_invariant_factors(matrix):
    rows, ncols = matrix
    want = smith_diagonal([dict(r) for r in rows])
    for transpose in (False, True):
        a, b = [dict(r) for r in rows], by_columns(rows, ncols)
        units, rest = _eliminate_units(*((b, a) if transpose else (a, b)))
        assert all(v not in (1, -1) for row in rest for v in row.values())
        assert [1] * units + smith_diagonal(rest) == want


def determinant(m):
    return sum((-1) ** c * m[0][c] * determinant([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m))) if m else 1


def determinantal_factors(dense):
    """Invariant factors from determinantal divisors, independent of any
    elimination: d_k is the gcd of all k x k minors and s_k = d_k / d_(k-1),
    for k up to the rank."""
    nrows, ncols = len(dense), len(dense[0])
    factors, previous = [], 1
    for k in range(1, min(nrows, ncols) + 1):
        d = 0
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                d = gcd(d, determinant([[dense[r][c] for c in cs] for r in rs]))
        if not d:
            break
        factors.append(d // previous)
        previous = d
    return factors


@st.composite
def dense_matrices(draw):
    """Up to 5 x 5, entries from a set whose products leave torsion."""
    ncols = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 1, -1, 2, -2, 3, 4, -6])
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(dense_matrices())
@example([[2, 4], [4, 2]])  # Z/2 + Z/6
@example([[4, 6, 0], [6, -6, 2], [0, 2, 3]])
def test_smith_diagonal_matches_determinantal_divisors(dense):
    rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
    assert smith_diagonal(rows) == determinantal_factors(dense)


def test_closed_surface_top_matrix_is_eliminated_by_columns(monkeypatch):
    cx = barycentric(RP2)
    vertices, edges, triangles = (len(cx.by_dim()[d]) for d in range(3))
    assert (vertices, edges, triangles) == (31, 90, 60)
    shapes = []

    def spy(rows, cols):
        shapes.append((len(rows), len(cols)))
        return _eliminate_units(rows, cols)

    monkeypatch.setattr(homotopy, "_eliminate_units", spy)
    h = homology(cx)
    # d1 by rows (every edge row has two entries), d2 by its edge columns
    assert shapes == [(edges, vertices), (edges, triangles)]
    assert (h.betti, h.torsion) == ([0, 0, 0], [[], [2], []])


def _homology_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "homology_inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_homology_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_homology_inputs_meet_their_closed_forms():
    make_inputs = _homology_inputs().make_inputs
    checked = 0
    for seed in range(1, 9):
        for item in make_inputs(seed):
            want = item["expected"]
            v = contractibility_verdict(complex_from_json(item["input"]))
            got = {"status": v.status, "method": v.method}
            got.update({k: v.detail[k] for k in ("degree", "betti", "torsion")
                        if k in v.detail})
            assert (v.homology.betti, v.homology.torsion, got) == (
                want["betti"], want["torsion"], want["verdict"]), (seed, item["name"])
            checked += 1
    assert checked == 56
