import json
from functools import cached_property, reduce
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck import homotopy, mapping
from nervecheck.bits import bit_list, bits, from_digits
from nervecheck.homotopy import Complex, contractibility_verdict
from nervecheck.horn import l_complex
from nervecheck.mapping import (NECKLACE_MAX_VERTICES, flag_counts,
                                flag_model, necklace_oracle, square_chain_poset)
from nervecheck.oriental import build_d, comparable_pairs, standard_interval
from nervecheck.poset import ChainSubcomplex, Poset, nerve_chains
from nervecheck.suites import _dp, _horn, run_suite
from oracles import clique_graph_oracle, flag_model_oracle

D = from_digits


def d_poset(n):
    return build_d(standard_interval(n))


def full_nerve(dposet):
    return ChainSubcomplex.closure(dposet.poset, nerve_chains(dposet.poset))


def tuples_of(model):
    p = model.ambient
    out = {}
    for k, flags in model.simplices.items():
        out[k] = sorted(tuple(p.chain_tuple(m) for m in f) for f in flags)
    return out


def listed_counts(fm):
    """The lengths of fm's listed dimension lists, dimension 0 first."""
    return [len(fs) for _, fs in sorted(fm.simplices.items())]


def theorem_grid():
    """(K, S, T) of the 394 n <= 4 theorem checks."""
    for n in (2, 3, 4):
        for i in range(1, n):
            for s, t in comparable_pairs(_dp(n), strict=False):
                yield _horn(n, i), s, t


# (i, S, T) of the theorem-n5 benchmark items at seed 1
THEOREM_N5_SEED1 = [(1, "0", "0145"), (1, "01", "025"), (2, "0", "0345"),
                    (3, "0", "0245"), (4, "0", "0145"), (4, "0123", "05")]

# a few theorem checks, cut at max_dim 0..3
TRUNCATED = [(3, 1, "0", "03"), (4, 1, "0", "04"), (4, 2, "01", "014"),
             (4, 3, "0", "0234")]


def assert_model_matches_its_oracle_and_clique_walk(k, s, t):
    """flag_model(k, s, t) lists its oracle's simplices, and its graph is
    the one clique_graph_oracle walks from them."""
    fm = flag_model(k, s, t)
    assert fm.simplices == flag_model_oracle(k, s, t), (s, t)
    walked = clique_graph_oracle(fm.simplices)
    assert walked is not None and fm.to_complex().graph == walked, (s, t)


def test_flag_model_matches_its_oracle_and_clique_walk_on_the_theorem_grid():
    checked = 0
    for k, s, t in theorem_grid():
        assert_model_matches_its_oracle_and_clique_walk(k, s, t)
        checked += 1
    assert checked == 394


def test_a_truncated_model_matches_its_oracle_and_carries_no_graph():
    for n, i, s, t in TRUNCATED:
        for cut in range(4):
            fm = flag_model(_horn(n, i), D(s), D(t), max_dim=cut)
            old = flag_model_oracle(_horn(n, i), D(s), D(t), cut)
            assert fm.simplices == old, (n, i, s, t, cut)
            cx = fm.to_complex()
            assert cx.graph is None
            # the verdict the model got before it carried a graph
            want = contractibility_verdict(Complex(strata=old))
            assert contractibility_verdict(cx) == want, (n, i, s, t, cut)


def test_flag_model_matches_its_oracle_on_the_seeded_theorem_n5_rows():
    # and its graph, of 253 to 837 vertices, matches the clique walk's
    for i, s, t in THEOREM_N5_SEED1:
        assert_model_matches_its_oracle_and_clique_walk(_horn(5, i), D(s), D(t))


@pytest.mark.slow
def test_flag_model_matches_its_oracle_on_the_n5_rows_of_at_most_1e5_simplices():
    rows = [r for r in n5_size_table()["rows"] if r["simplices"] <= 100_000]
    assert len(rows) == 1156
    for r in rows:
        k, s, t = _horn(5, r["i"]), D(r["s"]), D(r["t"])
        assert flag_model(k, s, t).simplices == flag_model_oracle(k, s, t), r


# the n=5 rows whose verdict strong collapse does not decide: (i, S, T,
# simplices, core_cells)
N5_PAST_COLLAPSE = [(1, "02", "05", 7599, 257), (1, "023", "05", 1391, 249),
                    (2, "013", "05", 1391, 249)]


def test_the_n5_rows_past_strong_collapse_get_the_eager_certificate():
    for i, s, t, size, cells in N5_PAST_COLLAPSE:
        k = _horn(5, i)
        cx = flag_model(k, D(s), D(t)).to_complex()
        got = contractibility_verdict(cx)
        assert cx.strata is None  # the core is closed from its facets
        assert (len(cx), got.method, got.detail) == (
            size, "acyclic-simply-connected", {"core_cells": cells})
        want = contractibility_verdict(Complex(strata=flag_model_oracle(k, D(s), D(t))))
        assert got == want, (i, s, t)


def test_strong_collapse_retries_only_what_a_removal_can_unblock(monkeypatch):
    # a failed domination test keeps the neighbour where it stopped, and
    # only the removal of that neighbour or an earlier one sends it back
    calls = []
    real = homotopy._on_graph

    def spy(nbr):
        drop, core = real(nbr)
        return lambda v: calls.append(v) or drop(v), core
    monkeypatch.setattr(homotopy, "_on_graph", spy)
    removed = 0
    for i, s, t in THEOREM_N5_SEED1:
        got = homotopy.strong_collapse(flag_model(_horn(5, i), D(s), D(t)).to_complex())
        assert got.success
        removed += got.removed
    assert (removed, len(calls)) == (2_520, 9_977)


def test_a_verdict_that_strong_collapse_decides_lists_no_flag(monkeypatch):
    listed = []
    monkeypatch.setattr(mapping, "clique_strata",
                        lambda *args: listed.append(args) or {})
    report = run_suite("theorem-contractible")
    assert len(report.checks) == 394
    assert all(c.certificate["method"] == "strong-collapse" for c in report.checks)
    for i, s, t in THEOREM_N5_SEED1:
        cx = flag_model(_horn(5, i), D(s), D(t)).to_complex()
        assert contractibility_verdict(cx).method == "strong-collapse"
        assert cx.strata is None
    assert listed == []


def first_failing_edge(masks, up):
    """_check_cliques' message as its scan of every edge b -> x found it
    before the edges that cannot fail were skipped, or None."""
    holding = {}
    for i, m in enumerate(masks):
        for e in bits(m):
            holding[e] = holding.get(e, 0) | 1 << i
    above = [reduce(and_, map(holding.__getitem__, bits(m))) ^ 1 << i
             for i, m in enumerate(masks)]
    for i, b in enumerate(masks):
        for j in bits(up[i]):
            if up[i] & above[j] & ~up[j]:
                return (f"flag model is not a clique complex: a vertex "
                        f"of A({b}) above {masks[j]} is not in A({masks[j]})")
    return None


def test_flag_model_raises_exactly_where_the_old_strata_are_no_clique_complex(monkeypatch):
    # each mutant horn lacks one triangle but keeps the tetrahedra on it,
    # so some admissible families break the clique lemma
    checked = []
    real = mapping._check_cliques
    monkeypatch.setattr(mapping, "_check_cliques",
                        lambda masks, up: checked.append((masks, up)) or real(masks, up))
    horn = _horn(4, 2)
    refused = 0
    for c in sorted(c for c in horn.chains if c.bit_count() == 3)[:40]:
        k = ChainSubcomplex(horn.ambient, horn.chains - {c}, validate=False)
        for s, t in comparable_pairs(_dp(4), strict=False):
            old = flag_model_oracle(k, s, t)
            if clique_graph_oracle(old) is None:
                refused += 1
                with pytest.raises(ValueError, match="not a clique complex") as got:
                    flag_model(k, s, t)
                # the same edge b -> x is named as by the scan of every edge
                assert str(got.value) == first_failing_edge(*checked[-1]), (c, s, t)
            else:
                assert flag_model(k, s, t).simplices == old, (c, s, t)
                assert first_failing_edge(*checked[-1]) is None, (c, s, t)
    assert refused == 151


def test_flag_model_full_d2_counts():
    d2 = d_poset(2)
    fm = flag_model(full_nerve(d2), D("0"), D("02"))
    assert fm.counts() == [4, 5, 2]
    assert contractibility_verdict(fm.to_complex()).status == "Contractible"


def test_flag_model_l21_single_vertex():
    d2 = d_poset(2)
    fm = flag_model(l_complex(2, 1), D("0"), D("02"))
    assert fm.counts() == [1]
    p = d2.poset
    (vertex,) = fm.vertices()
    labels = tuple(p.elements[i] for i in p.chain_tuple(vertex))
    assert labels == (D("0"), D("01"), D("012"), D("02"))


def test_flag_model_point_when_source_equals_target():
    d2 = d_poset(2)
    fm = flag_model(full_nerve(d2), D("01"), D("01"))
    assert fm.counts() == [1]
    no = necklace_oracle(full_nerve(d2), D("01"), D("01"))
    assert fm.same_simplices(no)


def test_flag_model_rejects_incomparable():
    d3 = d_poset(3)
    with pytest.raises(ValueError):
        flag_model(full_nerve(d3), D("02"), D("013"))


def test_faces_of_simplices_are_simplices():
    d3 = d_poset(3)
    k = l_complex(3, 1)
    fm = flag_model(k, D("0"), D("03"))
    by_dim = {d: set(fs) for d, fs in fm.simplices.items()}
    for d, flags in fm.simplices.items():
        for f in flags:
            for drop in range(len(f)):
                face = f[:drop] + f[drop + 1:]
                if face:
                    assert face in by_dim[d - 1]


def test_membership_depends_only_on_ends():
    # for each (bottom, top) pair of some simplex, every flag
    # interpolating between them is again a simplex
    d3 = d_poset(3)
    fm = flag_model(full_nerve(d3), D("0"), D("03"))
    simplex_set = {f for fs in fm.simplices.values() for f in fs}
    pairs = {(f[0], f[-1]) for f in simplex_set}
    vertices = [f[0] for f in fm.simplices.get(0, [])]
    for a, b in sorted(pairs):
        between = [m for m in vertices
                   if a | m == m and m | b == b and m not in (a, b)]
        for mid in between:
            assert (a, mid, b) in simplex_set


def test_necklace_agrees_on_d2_and_d3():
    for n in (2, 3):
        dp = d_poset(n)
        subs = [full_nerve(dp)] + [l_complex(n, i, dposet=dp) for i in range(1, n)]
        vertices = dp.poset.elements
        for k in subs:
            for s in vertices:
                for t in vertices:
                    if not dp.poset.less_eq(s, t):
                        continue
                    fm = flag_model(k, s, t)
                    no = necklace_oracle(k, s, t)
                    assert fm.same_simplices(no), (n, s, t)


def _segments_by_brute_force(k):
    groups = {}
    for c in k.chains:
        tup = k.ambient.chain_tuple(c)
        groups.setdefault((tup[0], tup[-1]), set()).add(c)
    return {ends: sorted(cs) for ends, cs in groups.items()}


def test_segment_index_groups_chains_by_ends():
    horns = [(n, i) for n in range(2, 5) for i in range(1, n)]
    complexes = [l_complex(n, i, dposet=d_poset(n)) for n, i in horns]
    complexes.append(full_nerve(d_poset(3)))
    for k in complexes:
        segs = k.segments
        assert all(type(v) is tuple for v in segs.values())
        assert {e: list(v) for e, v in segs.items()} == _segments_by_brute_force(k)


def test_segment_index_is_built_once_per_complex(monkeypatch):
    builds = []
    real = ChainSubcomplex.segments.func

    def counting(self):
        builds.append(self)
        return real(self)

    index = cached_property(counting)
    index.__set_name__(ChainSubcomplex, "segments")
    monkeypatch.setattr(ChainSubcomplex, "segments", index)
    k = l_complex(3, 1, dposet=d_poset(3))
    flag_model(k, D("0"), D("03"))
    assert builds == [k]
    flag_model(k, D("0"), D("03"))
    # the second call reads the index the first one built
    assert builds == [k]
    assert k.segments is k.segments


def test_necklace_vertex_limit():
    top = NECKLACE_MAX_VERTICES
    line = Poset.from_relation(list(range(top + 1)), lambda a, b: a <= b)
    points = ChainSubcomplex(line, [1 << v for v in range(top + 1)])
    with pytest.raises(ValueError, match="limited to"):
        necklace_oracle(points, 0, top)
    # D^4's full nerve has exactly the limit of vertices
    d4 = d_poset(4)
    k = full_nerve(d4)
    assert len(k.vertices()) == top
    assert necklace_oracle(k, D("0"), D("04"), max_dim=0).counts()


def test_max_dim_truncates():
    d3 = d_poset(3)
    k = full_nerve(d3)
    full = flag_model(k, D("0"), D("03"))
    cut = flag_model(k, D("0"), D("03"), max_dim=1)
    assert set(cut.simplices) <= {0, 1}
    for d in (0, 1):
        assert cut.simplices.get(d, []) == full.simplices.get(d, [])


def small_grid():
    """(K, S, T) for the full nerve and every horn of D^n, n <= 3, and
    every comparable pair S <= T."""
    for n in (1, 2, 3):
        dp = d_poset(n)
        p = dp.poset
        for k in [full_nerve(dp)] + [l_complex(n, i, dp) for i in range(1, n)]:
            for s in p.elements:
                for t in p.elements:
                    if p.less_eq(s, t):
                        yield k, s, t


def test_max_dim_cuts_the_model_after_whole_levels():
    for k, s, t in small_grid():
        full = listed_counts(flag_model(k, s, t))
        for d in range(len(full) + 1):
            assert listed_counts(flag_model(k, s, t, max_dim=d)) == full[:d + 1], (s, t, d)


def test_to_complex_hands_over_the_model_lists():
    # an untruncated model hands over its graph and counts, a truncated
    # one its lists
    for k, s, t in small_grid():
        fm = flag_model(k, s, t)
        cx = fm.to_complex()
        assert cx.strata is None and cx.graph is not None
        assert cx.labels == [v for (v,) in fm.simplices.get(0, [])]
        assert cx.counts == [len(fm.simplices[d]) for d in range(len(cx.counts))]
        cut = flag_model(k, s, t, max_dim=len(fm.counts()))
        strata = cut.to_complex().strata
        assert strata == {d: fs for d, fs in fm.simplices.items() if fs}
        assert all(strata[d] is cut.simplices[d] for d in strata)


def assert_lists_strictly_increase(fm, where):
    for d, flags in fm.simplices.items():
        assert all(a < b for a, b in zip(flags, flags[1:])), (where, d)


def test_flag_model_lists_come_out_strictly_increasing():
    # clique_strata does not sort: the Complex takes the lists as they come
    lists = 0
    for n in (2, 3, 4):
        for i in range(1, n):
            for s, t in comparable_pairs(_dp(n), strict=False):
                fm = flag_model(_horn(n, i), s, t)
                assert_lists_strictly_increase(fm, (n, i, s, t))
                lists += len(fm.simplices)
                for cut in range(len(fm.counts())):
                    assert_lists_strictly_increase(
                        flag_model(_horn(n, i), s, t, max_dim=cut), (n, i, s, t, cut))
    assert lists == 842
    for i, s, t in [(1, "0", "01345"), (2, "012", "0245"),
                    (3, "0", "01345"), (4, "012", "0245")]:
        fm = flag_model(_horn(5, i), D(s), D(t))
        assert len(fm.simplices) == 5
        assert_lists_strictly_increase(fm, (5, i, s, t))


def test_square_chain_poset_n1_frozen():
    p, f, dp = square_chain_poset(1, 0, 1)
    assert len(p) == 3
    coarse = frozenset({(0, 0), (1, 1)})
    left = frozenset({(0, 0), (0, 1), (1, 1)})
    right = frozenset({(0, 0), (1, 0), (1, 1)})
    assert set(p.elements) == {coarse, left, right}
    assert f(coarse) == D("01")
    assert f(left) == D("0")
    assert f(right) == D("01")
    # nerve is two edges glued at the coarse chain, no triangle
    chains = nerve_chains(p)
    assert len([c for c in chains if c.bit_count() == 1]) == 3
    edges = [c for c in chains if c.bit_count() == 2]
    assert len(edges) == 2
    assert len([c for c in chains if c.bit_count() == 3]) == 0
    shared = edges[0] & edges[1]
    assert shared.bit_count() == 1
    assert p.elements[bit_list(shared)[0]] == coarse


@pytest.mark.parametrize("n,i,j", [(2, 0, 1), (2, 0, 2), (3, 1, 3), (3, 0, 2)])
def test_square_chain_poset_image(n, i, j):
    p, f, dp = square_chain_poset(n, i, j)
    expected = {e for e in dp.poset.elements if max(bit_list(e)) <= j}
    assert f.image() == expected


def test_square_chain_poset_rejects_bad_window():
    with pytest.raises(ValueError):
        square_chain_poset(2, 2, 1)


@st.composite
def random_subcomplexes(draw):
    d3 = d_poset(3)
    chains = nerve_chains(d3.poset)
    picks = draw(st.lists(st.sampled_from(chains), min_size=1, max_size=12))
    return d3, ChainSubcomplex.closure(d3.poset, picks)


@settings(max_examples=30, deadline=None)
@given(random_subcomplexes())
def test_flag_vs_necklace_property(data):
    d3, k = data
    verts = k.vertices()
    for si in verts:
        for ti in verts:
            if not d3.poset.leq[si, ti]:
                continue
            s, t = d3.poset.elements[si], d3.poset.elements[ti]
            fm = flag_model(k, s, t)
            no = necklace_oracle(k, s, t)
            assert fm.same_simplices(no)


def test_flag_counts_equal_the_built_model_counts():
    pairs = 0
    for n in (2, 3, 4):
        dp = d_poset(n)
        p = dp.poset
        for k in [full_nerve(dp)] + [l_complex(n, i, dp) for i in range(1, n)]:
            for s in p.elements:
                for t in p.elements:
                    if p.less_eq(s, t):
                        assert flag_counts(k, s, t) == listed_counts(flag_model(k, s, t))
                        pairs += 1
    # the full nerve and the n - 1 inner horns, times D^n's comparable pairs
    assert pairs == 2 * 10 + 3 * 33 + 4 * 106
    k = full_nerve(d_poset(3))
    with pytest.raises(ValueError):
        flag_counts(k, D("02"), D("013"))
    assert flag_counts(k, D("02"), D("02")) == [1]
    # 0 < 01 < 03 in D^3, but K keeps only the three vertices: no edge path
    points = ChainSubcomplex(k.ambient, [1 << k.ambient.index[D(e)] for e in ("0", "01", "03")])
    assert flag_counts(points, D("0"), D("03")) == listed_counts(flag_model(points, D("0"), D("03"))) == []


@settings(max_examples=20, deadline=None)
@given(random_subcomplexes())
def test_flag_counts_property(data):
    d3, k = data
    p = d3.poset
    for si in k.vertices():
        for ti in k.vertices():
            if p.leq[si, ti]:
                s, t = p.elements[si], p.elements[ti]
                assert flag_counts(k, s, t) == listed_counts(flag_model(k, s, t))


def n5_size_table():
    return json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                       / "n5_sizes.json").read_text())


def test_flag_counts_match_the_n5_size_table():
    # perfbench counted the table with its own superset DP, not this closed
    # form, and cross-checked it against flag_model up to 6e5 simplices
    table = n5_size_table()
    dp = d_poset(5)
    horns = {i: l_complex(5, i, dp) for i in range(1, 5)}
    rows = table["rows"]
    assert len(rows) == 1204
    for r in rows:
        assert flag_counts(horns[r["i"]], D(r["s"]), D(r["t"])) == r["counts"]
