import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck.bits import bit_list, from_digits, mask_of
from nervecheck.homotopy import contractibility_verdict
from nervecheck.horn import l_complex
from nervecheck.mapping import (flag_model, necklace_oracle, refinement_poset,
                                restricted_refinement, square_chain_poset)
from nervecheck.oriental import build_d, standard_interval
from nervecheck.poset import ChainSubcomplex, nerve_chains

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


def test_refinement_poset_d2_frozen():
    d2 = d_poset(2)
    rp = refinement_poset(d2, D("0"), D("02"))
    chains = {tuple(d2.poset.elements[i] for i in d2.poset.chain_tuple(c))
              for c in rp.elements}
    assert chains == {
        (D("0"), D("02")),
        (D("0"), D("01"), D("02")),
        (D("0"), D("012"), D("02")),
        (D("0"), D("01"), D("012"), D("02")),
    }
    # refinement adds elements, so the coarse chain is the minimum
    assert rp.minimum() is not None
    assert rp.maximum() is not None


def test_refinement_poset_min_len_filter():
    d2 = d_poset(2)
    rp = refinement_poset(d2, D("0"), D("02"), min_len=3)
    assert len(rp) == 3  # drops the bare two-element chain


def test_restricted_refinement_through_face():
    d3 = d_poset(3)
    # chains from 0 to 03 through elements avoiding digit 1
    rp = restricted_refinement(d3, D("0"), D("03"), [D("023")])
    for c in rp.elements:
        for i in d3.poset.chain_tuple(c):
            assert not d3.poset.elements[i] & (1 << 1)
    assert len(rp) >= 2


def test_restricted_refinement_empty_when_endpoint_excluded():
    d3 = d_poset(3)
    # A({3}) consists of elements containing 3, which excludes the source
    rp = restricted_refinement(d3, D("0"), D("03"), [D("3")])
    assert len(rp) == 0


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


def test_necklace_vertex_limit():
    d4 = d_poset(4)
    with pytest.raises(ValueError):
        necklace_oracle(full_nerve(d4), D("0"), D("04"), vertex_limit=12)


def test_max_dim_truncates():
    d3 = d_poset(3)
    k = full_nerve(d3)
    full = flag_model(k, D("0"), D("03"))
    cut = flag_model(k, D("0"), D("03"), max_dim=1)
    assert set(cut.simplices) <= {0, 1}
    for d in (0, 1):
        assert cut.simplices.get(d, []) == full.simplices.get(d, [])


def test_exclusive_reading_differs():
    # with endpoints excluded the one-step flag {S < T} never sees K,
    # so the model gains vertices the inclusive reading rules out
    d2 = d_poset(2)
    k = l_complex(2, 1)
    inclusive = flag_model(k, D("0"), D("02"))
    exclusive = flag_model(k, D("0"), D("02"), exclusive=True)
    assert len(inclusive.vertices()) == 1
    assert len(exclusive.vertices()) == 4
    assert not inclusive.same_simplices(exclusive)


def test_exclusive_matches_inclusive_on_full_nerve():
    d2 = d_poset(2)
    k = full_nerve(d2)
    assert flag_model(k, D("0"), D("02")).same_simplices(
        flag_model(k, D("0"), D("02"), exclusive=True))


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
