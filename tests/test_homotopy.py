from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nervecheck.homotopy import (Complex, collapse, complex_from_chains,
                                 contractibility_verdict, facets, generate,
                                 homology, pi1_trivial, strong_collapse)
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


def test_homology_torus():
    verts = [(i, j) for i in range(3) for j in range(3)]
    idx = {v: k for k, v in enumerate(verts)}
    tris = []
    for i in range(3):
        for j in range(3):
            a = idx[(i, j)]
            b = idx[((i + 1) % 3, j)]
            c = idx[((i + 1) % 3, (j + 1) % 3)]
            d = idx[(i, (j + 1) % 3)]
            tris.append((a, b, c))
            tris.append((a, c, d))
    h = homology(generate(tris))
    assert h.betti == [0, 2, 1]
    assert all(not t for t in h.torsion)


def test_homology_projective_plane_torsion():
    # minimal 6-vertex triangulation
    tris = [(0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    h = homology(generate(tris))
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
    assert not collapse(cx).success and not collapse(cx, reverse=True).success
    v = contractibility_verdict(cx)
    assert (v.status, v.method) == ("Inconclusive", "pi1-unresolved")


def test_presentation_complex_of_trivial_group_is_contractible():
    # <s, t | s t, s t^2> presents the trivial group: built the same way,
    # rings and centres included, the complex is contractible and settled
    v = contractibility_verdict(presentation_complex([(1, 2), (1, 2, 2)]))
    assert (v.status, v.method) == ("Contractible", "acyclic-simply-connected")


def test_generate_interns_closes_and_rejects():
    cx = generate([("b", "a"), (), ("c",)])
    assert cx.simplices == {(0,), (1,), (0, 1), (2,)}
    with pytest.raises(ValueError, match="repeated vertex"):
        generate([(0, 1, 0)])


def test_collapse_rejects_unclosed_family():
    for check in (collapse, facets, contractibility_verdict):
        with pytest.raises(ValueError, match=r"face \(0,\) of \(0, 1\) is missing"):
            check(Complex([(0, 1), (1,)]))


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


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.booleans())
def test_collapse_cores_are_closed(cx, reverse):
    assert_closed(collapse(cx, reverse=reverse).critical)


def test_stuck_cores_are_closed():
    for cx in (sphere(1), sphere(2), generate(DUNCE_HAT)):
        for reverse in (False, True):
            assert_closed(collapse(cx, reverse=reverse).critical)


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
