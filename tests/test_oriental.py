import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nervecheck import oriental
from nervecheck.bits import (bits, digits, from_digits, interval_mask, mask_of,
                             max_bit, subsets_of)
from nervecheck.oriental import (build_d, d_elements, d_leq,
                                 d_via_under_category, rho_fully_faithful,
                                 rho_image, standard_interval,
                                 witness_set)
from nervecheck.poset import Poset

D = from_digits


def test_d_poset_sizes():
    for n in range(7):
        assert len(build_d(standard_interval(n))) == 2 ** n


FIGURE_EDGES = {
    1: [("0", "01")],
    2: [("0", "01"), ("01", "012"), ("012", "02")],
    3: [("0", "01"), ("01", "012"), ("012", "0123"), ("0123", "013"),
        ("012", "02"), ("0123", "023"), ("013", "03"),
        ("02", "023"), ("023", "03")],
    4: [("0", "01"), ("01", "012"), ("012", "0123"), ("0123", "01234"),
        ("01234", "0124"), ("012", "02"), ("0123", "023"), ("0123", "013"),
        ("01234", "0234"), ("01234", "0134"), ("0124", "024"), ("0124", "014"),
        ("02", "023"), ("023", "0234"), ("023", "03"), ("0234", "024"),
        ("0234", "034"), ("024", "04"), ("013", "0134"), ("013", "03"),
        ("0134", "014"), ("0134", "034"), ("014", "04"), ("03", "034"),
        ("034", "04")],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_poset_matches_frozen_hasse_diagrams(n):
    d = build_d(standard_interval(n))
    got = {(d.poset.elements[i], d.poset.elements[j]) for i, j in d.poset.covers}
    want = {(D(a), D(b)) for a, b in FIGURE_EDGES[n]}
    assert got == want


def test_d2_is_a_four_chain():
    d = build_d(standard_interval(2))
    order = [digits(e) for e in sorted(d.poset.elements,
                                       key=lambda e: d.poset.up_masks[d.poset.index[e]].bit_count(),
                                       reverse=True)]
    assert order == ["0", "01", "012", "02"]


def test_d_order_examples():
    assert d_leq(D("0"), D("02"))
    assert d_leq(D("012"), D("02"))
    assert not d_leq(D("02"), D("012"))
    assert not d_leq(D("013"), D("02"))
    # same maximum: only supersets are below
    assert d_leq(D("0123"), D("013"))
    assert not d_leq(D("013"), D("0123"))


def test_nonstandard_ground_set():
    g = mask_of([1, 3, 4])
    d = build_d(g)
    assert len(d) == 4
    assert all(e & 0b10 for e in d.poset.elements)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 10 - 1))
@example(mask_of([1, 3, 4]))
@example(mask_of([2, 5, 6, 9]))
def test_rows_match_the_d_leq_relation(g):
    # grounds inside [0, 9], gaps and a minimum above 0 included
    want = Poset.from_relation(d_elements(g), d_leq).up_masks
    assert build_d(g).poset.up_masks == want


def pairwise_up_rows(ground, els):
    """Oracle for the up-rows of D^ground: each set T above S looked up
    by its index, one related pair at a time.

    The sets T >= S with max(T) = mt are min(I) | mt | x, where x runs
    over the subsets of (S | [max(S), mt]) & I strictly below mt,
    min(I) left out."""
    index = {e: i for i, e in enumerate(els)}
    lo_bit = ground & -ground
    rows = []
    for s in els:
        ms = max_bit(s)
        row = 0
        for mt in bits(ground >> ms << ms):
            ends = lo_bit | 1 << mt
            free = (s | interval_mask(ms, mt)) & ground & ~lo_bit & ((1 << mt) - 1)
            for x in subsets_of(free):
                row |= 1 << index[ends | x]
        rows.append(row)
    return rows


@pytest.mark.slow
@pytest.mark.parametrize("n", [11, 12])
def test_large_d_posets_match_the_pairwise_listing(n):
    g = standard_interval(n)
    assert build_d(g).poset.up_masks == pairwise_up_rows(g, d_elements(g))


def test_build_d_never_calls_d_leq(monkeypatch):
    def refuse(s, t):
        raise AssertionError("build_d called d_leq")
    monkeypatch.setattr(oriental, "d_leq", refuse)
    assert len(build_d(standard_interval(6))) == 2 ** 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_under_category_oracle_agrees(n):
    d = build_d(standard_interval(n))
    o = d_via_under_category(standard_interval(n))
    assert o.elements == d.poset.elements
    assert o.up_masks == d.poset.up_masks


def test_witnesses_and_maximal_witness():
    g = standard_interval(3)
    s, t = D("0"), D("03")
    ws = witness_set(g, s, t)
    assert D("0123") in ws and D("03") in ws
    assert all(w | D("0123") == D("0123") for w in ws)
    assert witness_set(g, D("02"), D("01")) == []


GEOM_D3 = {
    "0": (0, 0), "01": (0, 1), "012": (0, 2), "02": (1, 2),
    "0123": (0, 3), "013": (0, 4), "023": (1, 3), "03": (1, 4),
}


def test_geometry_d3_coordinates():
    geo = build_d(standard_interval(3)).geometry
    for key, xy in GEOM_D3.items():
        assert geo.coords[D(key)] == xy


def test_geometry_d4_spot_values():
    geo = build_d(standard_interval(4)).geometry
    assert geo.coords[D("04")] == (1, 1, 5)
    assert geo.coords[D("0124")] == (0, 0, 5)
    assert geo.distance(D("0"), D("04")) == 7
    assert geo.close(D("0"), D("01"))
    assert not geo.close(D("0"), D("03"))


def test_distance_agrees_with_cover_graph_bfs():
    # taxicab distance equals shortest path length in the Hasse diagram
    d = build_d(standard_interval(4))
    geo = d.geometry
    import collections
    adj = collections.defaultdict(set)
    for i, j in d.poset.covers:
        adj[i].add(j)
        adj[j].add(i)
    src = d.poset.index[D("0")]
    dist = {src: 0}
    q = collections.deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    for i, e in enumerate(d.poset.elements):
        assert dist[i] == geo.distance(D("0"), e)


def test_atomic_edges_are_exactly_covers():
    for n in (2, 3, 4):
        d = build_d(standard_interval(n))
        geo = d.geometry
        covers = {(d.poset.elements[i], d.poset.elements[j]) for i, j in d.poset.covers}
        atomics = {(s, t) for s in d.poset.elements for t in d.poset.elements
                   if geo.atomic(s, t)}
        assert covers == atomics


def test_comparable_pairs_are_monotone_in_coordinates():
    for n in (2, 3, 4):
        d = build_d(standard_interval(n))
        geo = d.geometry
        for s in d.poset.elements:
            for t in d.poset.elements:
                if d_leq(s, t):
                    assert all(a <= b for a, b in zip(geo.coords[s], geo.coords[t]))


@pytest.mark.parametrize("n", range(2, 9))
def test_embedding_injective(n):
    # n = 1 is excluded: the target lattice is Z^0 there
    geo = build_d(standard_interval(n)).geometry
    vals = list(geo.coords.values())
    assert len(set(vals)) == len(vals)


def test_rho_basic():
    g = standard_interval(3)
    assert D("0123") in rho_image(g, D("23"))


def test_rho_image_known_families():
    g = standard_interval(3)
    # sub = {3}: image is everything containing 3
    img = set(rho_image(g, D("3")))
    assert img == {e for e in build_d(g).poset.elements if e & (1 << 3)}
    # sub = {0,...,2}: everything avoiding 3
    img = set(rho_image(g, D("012")))
    assert img == {e for e in build_d(g).poset.elements if not e & (1 << 3)}


def test_rho_monotone_in_sub():
    g = standard_interval(4)
    small = set(rho_image(g, D("24")))
    big = set(rho_image(g, D("234")))
    assert small <= big


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_rho_fully_faithful_property(n, data):
    g = standard_interval(n)
    lo = data.draw(st.integers(min_value=0, max_value=n))
    members = set()
    if lo < n:
        members = data.draw(st.sets(st.integers(min_value=lo + 1, max_value=n)))
    sub = mask_of({lo} | members)
    assert rho_fully_faithful(g, sub)


def test_d_relation_transitive_antisymmetric_n5():
    build_d(standard_interval(5))  # Poset constructor validates
