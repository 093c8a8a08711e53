from itertools import combinations_with_replacement

import pytest

from nervecheck.battery import functor_battery, parallel_pair
from nervecheck.category import chain_category, walking_iso
from nervecheck.simplicial import (
    CategoryNerveBackend,
    ComplexBackend,
    SimplexTable,
    codegeneracy,
    delta,
    horn_fill_check,
    map_by_dimension,
    monotone_surjections,
    sphere_maps,
)


def closure(*tops):
    faces = set()
    for top in tops:
        n = len(top)
        for mask in range(1, 1 << n):
            faces.add(tuple(top[i] for i in range(n) if mask >> i & 1))
    return faces


def simplex_table(dim=2):
    return SimplexTable(ComplexBackend(closure((0, 1, 2))), dim)


def compose_alpha(outer, inner):
    return tuple(outer[v] for v in inner)


def identity_alpha(n):
    return tuple(range(n + 1))


def test_cosimplicial_identities():
    n = 4
    for i in range(n):
        for j in range(i + 1, n + 1):
            left = compose_alpha(delta(j, n), delta(i, n - 1))
            right = compose_alpha(delta(i, n), delta(j - 1, n - 1))
            assert left == right
    for j in range(n):
        # both composites around a matching coface/codegeneracy cancel
        assert compose_alpha(codegeneracy(j, n - 1), delta(j, n)) == \
            identity_alpha(n - 1)
        assert compose_alpha(codegeneracy(j, n - 1), delta(j + 1, n)) == \
            identity_alpha(n - 1)


def test_monotone_surjections_counts():
    assert monotone_surjections(2, 1) == [(0, 1, 1), (0, 0, 1)] or \
        set(monotone_surjections(2, 1)) == {(0, 1, 1), (0, 0, 1)}
    for k in range(6):
        for j in range(k + 1):
            from math import comb
            assert len(monotone_surjections(k, j)) == comb(k, j)
            for a in monotone_surjections(k, j):
                assert a[0] == 0 and a[-1] == j
                assert all(0 <= b - a_ <= 1 for a_, b in zip(a, a[1:]))


def test_full_triangle_counts():
    t = simplex_table()
    assert t.counts() == [3, 3, 1]
    # all simplices, degenerate included: monotone maps into the triangle
    assert [len(s) for s in t.simplices] == [3, 6, 10]
    assert [len(d) for d in t.degenerate] == [0, 3, 9]


def test_face_identities_on_table():
    t = simplex_table(2)
    for s in t.simplices[2]:
        fs = t.boundary(s)
        for i in range(2):
            for j in range(i + 1, 3):
                assert t.boundary(fs[j])[i] == t.boundary(fs[i])[j - 1]


def test_degeneracy_identities_on_table():
    t = simplex_table(2)

    def degeneracy(s, j):
        return t.backend.alpha_star(s, codegeneracy(j, t.backend.dim_of(s)))

    for e in t.simplices[1]:
        for j in range(2):
            s = degeneracy(e, j)
            assert s in t.degenerate[2]
            assert t.boundary(s)[j] == e
            assert t.boundary(s)[j + 1] == e
        s0 = degeneracy(e, 0)
        assert t.boundary(s0)[2] == degeneracy(t.boundary(e)[1], 0)


def test_hollow_triangle_horn_unfilled():
    hollow = SimplexTable(ComplexBackend(closure((0, 1), (1, 2), (0, 2))), 2)
    assert hollow.counts() == [3, 3, 0]
    report = horn_fill_check(hollow, 2, 1)
    assert not report["all_filled"]
    assert report["horns"] - report["filled"] == 1
    assert report["unfilled_examples"] == [((1, 2), (0, 1))]
    full = simplex_table(2)
    assert horn_fill_check(full, 2, 1)["all_filled"]


def test_category_nerve_counts_and_horns():
    t = SimplexTable(CategoryNerveBackend(chain_category(2)), 3)
    assert t.counts() == [3, 3, 1, 0]
    r2 = horn_fill_check(t, 2, 1)
    assert r2["all_filled"] and set(r2["filler_counts"]) == {1}
    for i in (1, 2):
        r3 = horn_fill_check(t, 3, i)
        assert r3["all_filled"] and set(r3["filler_counts"]) == {1}


def test_walking_iso_nerve_faces_renormalize():
    # composing u;v yields an identity, so inner faces of the alternating
    # chains land on degenerate simplices, which the table lists as such
    t = SimplexTable(CategoryNerveBackend(walking_iso()), 3)
    assert t.counts() == [2, 2, 2, 2]
    chain = next(s for s in t.cells[2] if s[1] == ("u", "v"))
    d1 = t.boundary(chain)[1]
    assert d1 == (("a", "a"), ("ida",))
    assert d1 in t.degenerate[1]
    for s in t.simplices[3]:
        fs = t.boundary(s)
        for i in range(3):
            for j in range(i + 1, 4):
                assert t.boundary(fs[j])[i] == t.boundary(fs[i])[j - 1]


def _alpha_star_by_composition(cat, s, alpha):
    objs, mors = s
    return (tuple(objs[a] for a in alpha),
            tuple(cat.compose_path(mors[a:b], at=objs[a])
                  for a, b in zip(alpha, alpha[1:])))


def test_category_alpha_star_matches_composition():
    lengths = set()
    for _, sp in functor_battery():
        for cat in [sp.base, *sp.values.values()]:
            nb = CategoryNerveBackend(cat)
            for k in range(4):
                for s in nb.simplices(k):
                    for m in range(4):
                        for alpha in combinations_with_replacement(range(k + 1), m + 1):
                            lengths.update(b - a for a, b in zip(alpha, alpha[1:]))
                            assert (nb.alpha_star(s, alpha)
                                    == _alpha_star_by_composition(cat, s, alpha))
    assert {0, 1, 2, 3} <= lengths


def test_memoized_category_alpha_star_matches_a_fresh_backend():
    # a memo hit must give what a backend that never saw the simplex
    # computes, on every coface and codegeneracy
    for cat in [walking_iso(), chain_category(2), parallel_pair()]:
        memo = CategoryNerveBackend(cat)
        for k in range(4):
            maps = [delta(i, k) for i in range(k + 1)] if k else []
            maps += [codegeneracy(j, k) for j in range(k + 1)]
            for _ in range(2):
                for s in memo.simplices(k):
                    for alpha in maps:
                        assert memo.alpha_star(s, alpha) == \
                            CategoryNerveBackend(cat).alpha_star(s, alpha)


def test_table_reads_faces_the_closure_check_recorded():
    t = SimplexTable(CategoryNerveBackend(walking_iso()), 3)
    assert t.faces[0] == {}
    for k in (1, 2, 3):
        assert list(t.faces[k]) == t.simplices[k]
        for s in t.simplices[k]:
            assert t.boundary(s) is t.faces[k][s]
    # a simplex outside the table gets its faces from alpha_star
    top = t.simplices[3][-1]
    above = t.backend.alpha_star(top, codegeneracy(0, 3))
    assert t.boundary(above) == tuple(
        t.backend.alpha_star(above, delta(i, 4)) for i in range(5))


def test_marked_edges():
    iso_t = SimplexTable(CategoryNerveBackend(walking_iso()), 2)
    assert sum(map(iso_t.backend.marked, iso_t.cells[1])) == 2
    plain = SimplexTable(CategoryNerveBackend(chain_category(2)), 2)
    assert not any(map(plain.backend.marked, plain.cells[1]))
    v = plain.cells[0][0]
    assert plain.backend.marked(plain.backend.alpha_star(v, codegeneracy(0, 0)))
    assert all(map(plain.backend.thin, plain.simplices[2]))


def test_inner_horns_of_walking_iso():
    t = SimplexTable(CategoryNerveBackend(walking_iso()), 3)
    for n, i in ((2, 1), (3, 1), (3, 2)):
        rep = horn_fill_check(t, n, i)
        assert rep["all_filled"], (n, i)
        assert set(rep["filler_counts"]) == {1}


def test_sphere_maps_triangle():
    t = simplex_table(2)
    spheres = sphere_maps(t, 2)
    assert len(spheres) == 10
    by_boundary = {}
    for s in t.simplices[2]:
        by_boundary.setdefault(t.boundary(s), []).append(s)
    for sph in spheres:
        key = (sph[0], sph[1], sph[2])
        assert len(by_boundary.get(key, [])) == 1


def test_sphere_maps_hollow_triangle_has_extra():
    hollow = SimplexTable(ComplexBackend(closure((0, 1), (1, 2), (0, 2))), 2)
    spheres = sphere_maps(hollow, 2)
    filled = set()
    for s in hollow.simplices[2]:
        filled.add(hollow.boundary(s))
    unfilled = [s for s in spheres if (s[0], s[1], s[2]) not in filled]
    assert len(unfilled) == 1


def test_backend_validation():
    with pytest.raises(ValueError):
        ComplexBackend([(0, 1, 2)])
    with pytest.raises(ValueError):
        horn_fill_check(simplex_table(1), 2, 1)
    with pytest.raises(ValueError):
        horn_fill_check(simplex_table(2), 2, 0)


class _DoubledEdge(ComplexBackend):
    """Lists the first edge twice."""

    def simplices(self, k):
        out = super().simplices(k)
        return out + out[:1] if k == 1 else out


class _DroppedDegeneracy(ComplexBackend):
    """Leaves out the degenerate triangle (0, 0, 1)."""

    def simplices(self, k):
        return [s for s in super().simplices(k) if s != (0, 0, 1)]


@pytest.mark.parametrize("broken, message", [
    (_DoubledEdge, "duplicate simplices in dimension 1"),
    (_DroppedDegeneracy, "degeneracies missing in dimension 2"),
])
def test_closure_errors(broken, message):
    good, bad = ComplexBackend(closure((0, 1, 2))), broken(closure((0, 1, 2)))
    with pytest.raises(ValueError, match=message):
        SimplexTable(bad, 2)
    table = SimplexTable(good, 2)
    assert [len(s) for s in table.simplices] == [3, 6, 10]
    # a comparison reads a table built higher only through its own dim
    assert [len(sims) for sims, _, _, commute in
            map_by_dimension(table, table, lambda z: z, 1) if commute] == [3, 6]


def test_cells_are_sorted_on_first_read():
    t = simplex_table(2)
    assert "cells" not in vars(t)
    assert t.counts() == [3, 3, 1]
    assert t.cells is t.cells
