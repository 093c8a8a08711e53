import pytest

from nervecheck.bits import bit_list, from_digits, nonempty_subsets_of
from nervecheck.horn import (_union_over_faces, a_elements,
                             admissible_and_superior, is_admissible, l_complex,
                             phi_on_objects, superior_closed_form)
from nervecheck.oriental import build_d, standard_interval

D = from_digits


def test_admissible_excludes_exactly_two_sets():
    fam = admissible_and_superior(3, 1)
    assert D("0123") not in fam.admissible
    assert D("023") not in fam.admissible
    assert len(fam.admissible) == 2 ** 4 - 1 - 2


def test_superior_n3_i1():
    fam = admissible_and_superior(3, 1)
    assert set(fam.superior) == {D("013"), D("012"), D("123"), D("23"), D("3")}


@pytest.mark.parametrize("n", range(2, 8))
def test_superior_matches_closed_form(n):
    for i in range(1, n):
        fam = admissible_and_superior(n, i)
        assert fam.superior == superior_closed_form(n, i)
        # every superior element is admissible and maximal among its minimum
        for s in fam.superior:
            assert is_admissible(s, n, i)
            assert not any(a != s and a | s == a and
                           bit_list(a)[0] == bit_list(s)[0]
                           for a in fam.admissible)


def test_superior_counts():
    # n choices of removed point (j != i) plus tails k=2..n, dedup of [n]-{0}
    for n in range(2, 7):
        for i in range(1, n):
            assert len(superior_closed_form(n, i)) == 2 * n - 1


def test_a_elements_known_shapes():
    d3 = build_d(standard_interval(3))
    assert set(a_elements(d3, D("3"))) == {e for e in d3.poset.elements if e & 0b1000}
    assert set(a_elements(d3, D("23"))) == {e for e in d3.poset.elements if e & 0b100}
    assert set(a_elements(d3, D("012"))) == {e for e in d3.poset.elements
                                             if not e & 0b1000}


def test_l2_1_shape():
    k = l_complex(2, 1)
    d2 = k.ambient
    verts = {d2.elements[v] for v in k.vertices()}
    assert verts == {D("0"), D("01"), D("012"), D("02")}
    edges = [c for c in k.chains if c.bit_count() == 2]
    lab = {tuple(sorted((d2.elements[i]) for i in bit_list(c))) for c in edges}
    assert lab == {(D("0"), D("01")), (D("01"), D("012")), (D("02"), D("012"))}
    assert k.dimension() == 1


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_union_over_superior_equals_union_over_admissible(n, i):
    dp = build_d(standard_interval(n))
    a = l_complex(n, i, dp)
    b = _union_over_faces(dp, admissible_and_superior(n, i).admissible)
    assert a.chains == b.chains


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_l_contains_all_vertices_and_sits_in_s(n, i):
    k = l_complex(n, i)
    assert len(k.vertices()) == 2 ** n
    # S: the union of the A(J) nerves over every proper face J
    full = standard_interval(n)
    s = _union_over_faces(build_d(full),
                          [j for j in nonempty_subsets_of(full) if j != full])
    assert k.chains <= s.chains


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_phi_objects_coincide_for_positive_j(n, i):
    for j in range(1, n + 1):
        restricted, full = phi_on_objects(n, i, j)
        assert restricted.chains == full.chains


@pytest.mark.parametrize("n,i", [(2, 1), (3, 2), (4, 1)])
def test_phi_at_zero_is_the_horn_complex(n, i):
    restricted, full = phi_on_objects(n, i, 0)
    horn = l_complex(n, i)
    assert restricted.chains == horn.chains
    assert restricted.chains < full.chains
