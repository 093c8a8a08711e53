import heapq
import importlib.util
import sys
import tracemalloc
from itertools import accumulate, chain, combinations, permutations, repeat
from math import gcd
from operator import and_
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nervecheck import homotopy, suites
from nervecheck.bits import bits, from_digits
from nervecheck.homotopy import (Complex, HomologySummary,
                                 StrongCollapseResult, _cyclic_reduce,
                                 _eliminate_units, collapse,
                                 complex_from_json,
                                 contractibility_verdict, facets, generate,
                                 homology, pi1_trivial, smith_diagonal,
                                 strong_collapse)
from nervecheck.horn import l_complex
from nervecheck.mapping import flag_model
from nervecheck.oriental import build_d, comparable_pairs, standard_interval
from nervecheck.poset import ChainSubcomplex, Poset, nerve_chains
from nervecheck.suites import _dp, _horn, run_suite
from oracles import close_oracle, generate_oracle
from test_mapping import THEOREM_N5_SEED1


def simplex_set(cx):
    """The simplices of cx as one flat set."""
    return set(chain.from_iterable(cx.strata.values()))


def order_complex(chains):
    """The complex of a subchain-closed family of chain masks, listed."""
    return Complex(tuple(bits(c)) for c in chains)


def full_simplex(n):
    return generate([tuple(range(n + 1))])


def sphere(n):
    return generate(list(combinations(range(n + 2), n + 1)))


def test_closure():
    cx = generate([(0, 1, 2)])
    assert len(cx) == 7
    assert cx.dimension() == 2


def test_complex_groups_sorts_and_dedups_its_input():
    cx = Complex(iter([(2, 3), (0,), (1, 2), (3,), (0, 1, 2), (2, 3), (0,)]))
    assert cx.strata == {0: [(0,), (3,)], 1: [(1, 2), (2, 3)], 2: [(0, 1, 2)]}
    assert list(cx.strata) == [0, 1, 2]
    assert (len(cx), cx.dimension(), cx.euler_characteristic()) == (5, 2, 1)
    assert Complex([]).strata == {} and Complex([]).dimension() == -1


@st.composite
def families(draw):
    """Strictly increasing int tuples in any order with repeats, at times
    closed under faces."""
    sims = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4)
                         .map(lambda v: tuple(sorted(v))), max_size=20))
    if draw(st.booleans()):
        sims += [f for s in sims for k in range(1, len(s)) for f in combinations(s, k)]
    return draw(st.permutations(sims + sims[:draw(st.integers(0, len(sims)))]))


@settings(max_examples=80, deadline=None)
@given(families())
def test_strata_match_a_recount_from_a_plain_set(family):
    plain = set(family)
    by_dim = {}
    for s in plain:
        by_dim.setdefault(len(s) - 1, set()).add(s)
    cx = Complex(iter(family))
    # sorted and duplicate-free per dimension, no empty dimension
    assert cx.strata == {d: sorted(v) for d, v in by_dim.items()}
    assert len(cx) == len(plain)
    assert cx.dimension() == max(by_dim, default=-1)
    assert cx.euler_characteristic() == sum((-1) ** (len(s) - 1) for s in plain)
    assert cx.is_empty() == (not plain)


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
    assert len(cx.strata[0]) == 8 and len(cx.strata[1]) == 24
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
    assert simplex_set(cx) == {(0,), (1,), (0, 1), (2,)}
    with pytest.raises(ValueError, match="repeated vertex"):
        generate([(0, 1, 0)])


def test_generate_bounds_the_faces_of_distinct_input_simplices(monkeypatch):
    monkeypatch.setattr(homotopy, "MAX_INPUT_FACES", 10)
    # 7 + 3 faces by the bound, a repeat counted once; 9 once closed
    assert len(generate([(0, 1, 2), (2, 1, 0), (2, 3)])) == 9
    with pytest.raises(ValueError, match="up to 13 faces, more than 10"):
        generate([(0, 1, 2), (2, 3), (3, 4)])


@st.composite
def labelled_families(draw):
    """Up to 8 simplices of dimension at most 4 over ints and strings, with
    repeated and empty simplices: outside input as generate takes it."""
    label = st.sampled_from([0, 1, 2, 3, 7, "a", "b", "c"])
    return draw(st.lists(st.lists(label, max_size=5, unique=True), max_size=8))


def same_complex(got, want):
    return (list(got.strata.items()), got.labels, got.counts) == (
        list(want.strata.items()), want.labels, want.counts)


@settings(max_examples=150, deadline=None)
@given(labelled_families())
@example([["b", 0, 3, 1, 2], [7], [], ["c", "a"], [2, "b"]])
def test_generate_matches_the_stack_closure(family):
    cx = generate(family)
    assert same_complex(cx, generate_oracle(family))
    # the verdict closes a strong core from its facets, labels kept
    core = strong_collapse(cx).core
    assert same_complex(homotopy._close(core), close_oracle(core))


def test_collapse_rejects_unclosed_family():
    for check in (collapse, facets, contractibility_verdict, homology, pi1_trivial):
        with pytest.raises(ValueError, match=r"face \(0,\) of \(0, 1\) is missing"):
            check(Complex([(0, 1), (1,)]))
    with pytest.raises(ValueError, match=r"face \(1, 2\) of \(0, 1, 2\) is missing"):
        homology(Complex([(0,), (1,), (0, 1, 2)]))
    # a triangle edge missing from the family is not taken for a tree edge
    with pytest.raises(ValueError, match=r"face \(0, 2\) of \(0, 1, 2\) is missing"):
        pi1_trivial(Complex([(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]))


def test_a_missing_dimension_is_a_missing_face():
    # no edge at all: the triangle's faces are looked for in an empty level
    hollow = Complex([(0,), (1,), (2,), (0, 1, 2)])
    for check in (facets, contractibility_verdict):
        with pytest.raises(ValueError, match=r"^face \(0, 1\) of \(0, 1, 2\) is missing$"):
            check(hollow)


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
            for s, t in comparable_pairs(_dp(n), strict=False):
                fm = flag_model(_horn(n, i), s, t)
                assert strong_collapse(fm.to_complex()).success, (n, i, s, t)
                assert collapse(Complex(strata=fm.simplices)).success, (n, i, s, t)


def strong_collapse_oracle(cx):
    """strong_collapse as it was before complexes were held by dimension:
    facets regrouped from a flat set, and an any() scan of the smallest
    star for a facet containing each shrunk one; kept as its oracle."""
    simplices = simplex_set(cx)
    by_len = {}
    for s in simplices:
        by_len.setdefault(len(s), []).append(s)
    tops = []
    covered = set()
    for k in sorted(by_len, reverse=True):
        level = by_len[k]
        tops.extend(s for s in level if s not in covered)
        if k == 1:
            break
        covered = set(chain.from_iterable(map(combinations, level, repeat(k - 1))))
        missing = covered.difference(simplices)
        if missing:
            f = min(missing)
            s = min(s for s in level if set(f) <= set(s))
            raise ValueError(f"face {f} of {s} is missing")
    tops.sort()
    labels = sorted({v for f in tops for v in f})
    index = {v: i for i, v in enumerate(labels)}
    star = [set() for _ in labels]
    members = {}
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


def assert_strong_collapse_matches_its_oracle(cx, listed=None):
    """strong_collapse(cx) equals its oracle's result on cx, or on listed
    (the same complex with its strata listed) when cx holds none."""
    got, want = strong_collapse(cx), strong_collapse_oracle(listed or cx)
    assert (got.removed, got.core, got.dimension) == (
        want.removed, want.core, want.dimension)


def test_strong_collapse_matches_its_oracle_on_the_theorem_grid():
    checked = 0
    for n in (2, 3, 4):
        for i in range(1, n):
            for s, t in comparable_pairs(_dp(n), strict=False):
                fm = flag_model(_horn(n, i), s, t)
                assert_strong_collapse_matches_its_oracle(
                    fm.to_complex(), Complex(strata=fm.simplices))
                checked += 1
    assert checked == 394


def test_strong_collapse_matches_its_oracle_on_the_wide_masks_of_the_theorem_n5_rows():
    # 253 to 837 vertices: each neighbourhood mask spans several machine
    # words, where the n <= 4 grid's fit in one
    widths = []
    for i, s, t in THEOREM_N5_SEED1:
        fm = flag_model(_horn(5, i), from_digits(s), from_digits(t))
        assert_strong_collapse_matches_its_oracle(
            fm.to_complex(), Complex(strata=fm.simplices))
        widths.append(len(fm.vertices()))
    assert (min(widths), max(widths)) == (253, 837)


def test_strong_collapse_matches_its_oracle_on_the_seeded_homology_inputs():
    make_inputs = _homology_inputs().make_inputs
    for seed in range(1, 9):
        for item in make_inputs(seed):
            assert_strong_collapse_matches_its_oracle(complex_from_json(item["input"]))


def assert_closed(family):
    """The family equals its own generate closure, vertex ids kept in order."""
    family = set(family)
    verts = sorted({v for s in family for v in s})
    rank = {v: k for k, v in enumerate(verts)}
    closed = generate([(v,) for v in verts] + sorted(family))
    assert simplex_set(closed) == {tuple(rank[v] for v in s) for s in family}


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
                        fm = flag_model(k, s, t)
                        assert_closed(simplex_set(Complex(strata=fm.simplices)))


def test_poset_nerves_are_closed():
    for n in (1, 2, 3, 4):
        p = build_d(standard_interval(n)).poset
        assert_closed(simplex_set(order_complex(nerve_chains(p))))


def test_verdict_on_poset_nerve():
    d3 = build_d(standard_interval(3))
    full = ChainSubcomplex(d3.poset, nerve_chains(d3.poset), validate=False)
    v = contractibility_verdict(order_complex(full.chains))
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


@settings(max_examples=80, deadline=None)
@given(small_complexes())
def test_strong_collapse_matches_its_oracle(cx):
    assert_strong_collapse_matches_its_oracle(cx)


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
    inner = sorted(simplex_set(cx).difference(facets(cx)))
    assume(inner)
    gone = inner[pick % len(inner)]
    with pytest.raises(ValueError, match="is missing"):
        contractibility_verdict(Complex(simplex_set(cx) - {gone}))


def full_matrix_homology(cx):
    """Betti numbers and torsion from smith_diagonal on whole boundary matrices."""
    strata = cx.strata
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
    strata = cx.strata
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
    vertices, edges, triangles = (len(cx.strata[d]) for d in range(3))
    assert (vertices, edges, triangles) == (31, 90, 60)
    shapes = []

    def spy(rows, cols):
        shapes.append((len(rows), len(cols)))
        return _eliminate_units(rows, cols)

    monkeypatch.setattr(homotopy, "_eliminate_units", spy)
    h = homology(cx)
    # d1 has no matrix (its rank is a union-find count), d2 by its edge columns
    assert shapes == [(edges, triangles)]
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


def facets_oracle(cx):
    """facets as it was before closure was checked by a superset scan: the
    faces of the level above held as one set and taken from the level's
    set; kept as its oracle."""
    out = []
    above = []
    covered = set()  # faces of the level above
    for d in range(cx.dimension(), -1, -1):
        level = cx.strata.get(d, [])
        uncovered = set(level)
        uncovered.difference_update(covered)
        # strata are distinct, so every face was found iff this many went
        if len(level) - len(uncovered) != len(covered):
            f = min(covered.difference(level))
            s = min(s for s in above if set(f) <= set(s))
            raise ValueError(f"face {f} of {s} is missing")
        out += uncovered
        if d:
            covered = set(chain.from_iterable(map(combinations, level, repeat(d))))
            above = level
    out.sort()
    return out


def assert_facets_match_their_oracle(cx):
    assert facets(cx) == facets_oracle(cx)


@settings(max_examples=80, deadline=None)
@given(small_complexes())
def test_facets_match_their_oracle(cx):
    assert_facets_match_their_oracle(cx)


def test_facets_match_their_oracle_on_the_theorem_grid():
    checked = 0
    for n in (2, 3, 4):
        for i in range(1, n):
            for s, t in comparable_pairs(_dp(n), strict=False):
                fm = flag_model(_horn(n, i), s, t)
                assert_facets_match_their_oracle(Complex(strata=fm.simplices))
                checked += 1
    assert checked == 394


def test_facets_match_their_oracle_on_the_seeded_homology_inputs():
    make_inputs = _homology_inputs().make_inputs
    for seed in range(1, 9):
        for item in make_inputs(seed):
            assert_facets_match_their_oracle(complex_from_json(item["input"]))


def test_facets_match_their_oracle_on_two_n5_pairs():
    for i, s, t, size in ((1, "0", "0145", 58_809), (1, "01", "025", 121_717)):
        fm = flag_model(_horn(5, i), from_digits(s), from_digits(t))
        cx = Complex(strata=fm.simplices)
        assert len(cx) == size
        assert_facets_match_their_oracle(cx)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.integers(min_value=0))
def test_facets_and_their_oracle_name_the_same_missing_face(cx, pick):
    inner = sorted(simplex_set(cx).difference(facets_oracle(cx)))
    assume(inner)
    holed = Complex(simplex_set(cx) - {inner[pick % len(inner)]})
    with pytest.raises(ValueError, match="is missing") as want:
        facets_oracle(holed)
    with pytest.raises(ValueError, match="is missing") as got:
        facets(holed)
    assert str(got.value) == str(want.value)


def test_facets_hold_no_copy_of_the_faces():
    horn, s, t = _horn(5, 1), from_digits("0"), from_digits("0145")
    flag_model(horn, s, t)  # fills the horn's caches before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # a flag model lists its simplices on first read
        cx = Complex(strata=flag_model(horn, s, t).simplices)
        strata = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        facets(cx)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(cx) == 58_809
    assert peak <= 0.75 * strata, (peak, strata)


def clique_complex(n, edges):
    """Every clique of the graph on 0..n-1 with these edges, as a Complex."""
    near = {v: set() for v in range(n)}
    for a, b in edges:
        near[a].add(b)
        near[b].add(a)
    cliques = []

    def grow(clique, cand):
        cliques.append(clique)
        for v in sorted(cand):
            grow(clique + (v,), {u for u in cand & near[v] if u > v})

    for v in range(n):
        grow((v,), {u for u in near[v] if u > v})
    return Complex(cliques)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, k in zip(pairs, keep) if k]


@st.composite
def random_order_complexes(draw):
    """Order complex of a poset on 0..n-1 whose relation extends the order
    of the integers: the closure of a random set of pairs i < j."""
    n = draw(st.integers(min_value=1, max_value=9))
    ups = [1 << i for i in range(n)]
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            ups[i] |= 1 << j
    for i in reversed(range(n)):  # transitive closure, top down
        for j in bits(ups[i] & ~(1 << i)):
            ups[i] |= ups[j]
    return order_complex(nerve_chains(Poset(range(n), ups)))


def facet_calls(monkeypatch):
    """Count the calls strong_collapse makes to facets from now on."""
    calls = []
    real = homotopy.facets

    def spy(cx):
        calls.append(cx)
        return real(cx)
    monkeypatch.setattr(homotopy, "facets", spy)
    return calls


def assert_clique_path_matches_the_facet_path(cx):
    """strong_collapse takes the clique path on cx without calling facets,
    and it and the verdict agree with the oracle and with the facet path."""
    with pytest.MonkeyPatch.context() as mp:
        calls = facet_calls(mp)
        got, verdict = strong_collapse(cx), contractibility_verdict(cx)
        assert calls == []
        mp.setattr(homotopy, "_clique_graph", lambda strata, index: None)
        assert contractibility_verdict(cx) == verdict
    want = strong_collapse_oracle(cx)
    assert (got.removed, got.core, got.dimension) == (
        want.removed, want.core, want.dimension)
    return got


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_clique_path_matches_the_oracle_on_random_graphs(graph):
    assert_clique_path_matches_the_facet_path(clique_complex(*graph))


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=3))
def test_degree_one_homology_meets_its_closed_form(graph, isolated):
    # reduced betti_0 = c - 1 and betti_1 = E - V + c over c components, no
    # torsion; vertex v is labelled 2v + 5, and c is counted breadth first
    n, edges = graph
    vertices = range(n + isolated)
    near = {v: [] for v in vertices}
    for a, b in edges:
        near[a].append(b)
        near[b].append(a)
    seen, components = set(), 0
    for v in vertices:
        if v not in seen:
            components += 1
            seen.add(v)
            queue = [v]
            for u in queue:
                fresh = [w for w in near[u] if w not in seen]
                seen.update(fresh)
                queue += fresh
    cx = Complex([(2 * v + 5,) for v in vertices] + [(2 * a + 5, 2 * b + 5) for a, b in edges])
    want = [components - 1, len(edges) - len(vertices) + components][:cx.dimension() + 1]
    assert homology(cx) == HomologySummary(want, [[] for _ in want])


@settings(max_examples=60, deadline=None)
@given(random_order_complexes())
def test_clique_path_matches_the_oracle_on_random_order_complexes(cx):
    assert_clique_path_matches_the_facet_path(cx)


def retry_every_neighbour(nbr):
    """_on_graph's drop as it was before a failed test kept where it
    stopped: every neighbour of a removed vertex is tried again."""
    def drop(v):
        bit, near = 1 << v, nbr[v] ^ 1 << v
        if bit in accumulate(map(nbr.__getitem__, bits(near)), and_, initial=nbr[v]):
            return None
        nbr[v] = 0
        for u in bits(near):
            nbr[u] ^= bit
        return bits(near)
    return drop


def removal_order(cx, make_drop=None):
    """strong_collapse(cx) and the vertex ids its drop removed, in order,
    with drop replaced by make_drop(nbr) when that is given."""
    order = []
    real = homotopy._on_graph

    def spy(nbr):
        drop, core = real(nbr)
        drop = make_drop(nbr) if make_drop else drop

        def recorded(v):
            if (near := drop(v)) is not None:
                order.append(v)
            return near
        return recorded, core
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_on_graph", spy)
        got = strong_collapse(cx)
    return got, order


def assert_pruned_retries_remove_what_every_retry_removes(cx):
    got, order = removal_order(cx)
    want, want_order = removal_order(cx, retry_every_neighbour)
    assert order == want_order
    assert len(order) == got.removed
    assert (got.removed, got.core) == (want.removed, want.core)


@settings(max_examples=80, deadline=None)
@given(random_graphs())
def test_pruned_retries_remove_the_same_vertices_in_order_on_random_graphs(graph):
    assert_pruned_retries_remove_what_every_retry_removes(clique_complex(*graph))


@settings(max_examples=60, deadline=None)
@given(random_order_complexes())
def test_pruned_retries_remove_the_same_vertices_in_order_on_order_complexes(cx):
    assert_pruned_retries_remove_what_every_retry_removes(cx)


OCTAHEDRON = [(a, b) for a, b in combinations(range(6), 2) if b != a + 1 or a % 2]


@pytest.mark.parametrize("extra, removed", [
    ([(0, 6), (2, 6), (4, 6)], 1),  # a cone on the triangle 024
    ([(0, 6), (6, 7), (7, 8)], 3),  # a path hanging off vertex 0
])
def test_clique_path_keeps_an_octahedral_core(extra, removed):
    cx = clique_complex(1 + max(map(max, extra)), OCTAHEDRON + extra)
    got = assert_clique_path_matches_the_facet_path(cx)
    octahedron = [t for t in combinations(range(6), 3)
                  if set(combinations(t, 2)) <= set(OCTAHEDRON)]
    assert (got.removed, got.core) == (removed, octahedron)
    assert contractibility_verdict(cx).method == "homology"


def test_clique_path_keeps_a_torus_core_under_a_whisker():
    tris = facets(torus(6))
    cx = Complex(simplex_set(torus(6)) | {(0, 99), (99,)})
    got = assert_clique_path_matches_the_facet_path(cx)
    assert (got.removed, got.core) == (1, tris)
    v = contractibility_verdict(cx)
    assert (v.method, v.homology.betti) == ("homology", [0, 2, 1])


def test_a_lazy_clique_complex_that_does_not_collapse_closes_its_core(monkeypatch):
    # the octahedral 2-sphere, the clique complex of K_{2,2,2}: no vertex
    # is dominated, so the verdict closes the core from its facets
    edges = [(a, b) for a, b in combinations(range(6), 2) if b != a ^ 1]
    eager = clique_complex(6, edges)
    up = [sum(1 << b for a, b in edges if a == v) for v in range(6)]
    lazy = Complex(labels=list(range(6)), graph=up, counts=[6, 12, 8])
    assert (len(lazy), lazy.dimension(), lazy.euler_characteristic()) == (26, 2, 2)
    assert lazy.strata is None
    closed = []
    real = homotopy._close
    monkeypatch.setattr(homotopy, "_close",
                        lambda family: closed.append(real(family)) or closed[-1])
    v = contractibility_verdict(lazy)
    assert strong_collapse(lazy).removed == 0
    assert len(closed) == 1 and closed[0].strata == eager.strata
    assert (v.status, v.homology.betti) == ("NotContractible", [0, 0, 1])
    assert v == contractibility_verdict(eager)
    assert homology(closed[0]) == homology(eager)


def strata_out_of_order():
    cx = full_simplex(3)
    return Complex(strata={d: s[::-1] if d == 1 else s for d, s in cx.strata.items()})


@pytest.mark.parametrize("make", [
    lambda: sphere(2),  # the clique complex of K4 less its one top simplex
    strata_out_of_order,
], ids=["missing-top-simplex", "strata-out-of-order"])
def test_complexes_the_walk_refuses_take_the_facet_path(monkeypatch, make):
    cx = make()
    calls = facet_calls(monkeypatch)
    got = strong_collapse(cx)
    assert calls == [cx]
    want = strong_collapse_oracle(cx)
    assert (got.removed, got.core, got.dimension) == (
        want.removed, want.core, want.dimension)


@pytest.mark.parametrize("strata, message", [
    ({0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]},
     r"face \(0, 2\) of \(0, 1, 2\)"),
    ({0: [(0,), (1,)], 1: [(0, 1), (0, 2)]}, r"face \(2,\) of \(0, 2\)"),
], ids=["edge", "vertex"])
def test_the_facet_path_names_a_face_the_walk_misses(strata, message):
    with pytest.raises(ValueError, match=f"^{message} is missing$"):
        strong_collapse(Complex(strata=strata))


def test_default_suites_collapse_on_the_graph_and_homology_inputs_on_facets(monkeypatch):
    # flag models and order complexes hand over their graph; outside
    # input is walked by _clique_graph
    calls = facet_calls(monkeypatch)
    walks = []
    walk = homotopy._clique_graph

    def spy(strata, index):
        walks.append(strata)
        return walk(strata, index)
    monkeypatch.setattr(homotopy, "_clique_graph", spy)
    listers = []
    list_chains = suites.nerve_chains

    def chains_spy(p):
        listers.append(sys._getframe(1).f_code.co_name)
        return list_chains(p)
    monkeypatch.setattr(suites, "nerve_chains", chains_spy)
    for name in suites.SUITES:
        rep = run_suite(name)
        assert {c.verdict for c in rep.checks} == {"PASS"}, name
        assert walks == [], name
    assert len(suites.SUITES) == 12
    assert calls == []
    assert listers and set(listers) == {"_oracle"}  # no order complex lists a chain
    make_inputs = _homology_inputs().make_inputs
    for seed in range(1, 9):
        for item in make_inputs(seed):
            cx = complex_from_json(item["input"])
            contractibility_verdict(cx)
            assert calls[-1] is cx and walks[-1] is cx.strata, (seed, item["name"])
    assert len(calls) == 56 and len(walks) == 56
