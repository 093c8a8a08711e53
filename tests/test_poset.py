import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck.bits import bit_list, bits, mask_of
from nervecheck.oriental import build_d, standard_interval
from nervecheck.poset import (ChainSubcomplex, MonotoneMap, Poset,
                              nerve_chains, strict_interval)


def chain_poset(n):
    return Poset.from_relation(list(range(n)), lambda a, b: a <= b)


def divisor_poset(top):
    els = [d for d in range(1, top + 1) if top % d == 0]
    return Poset.from_relation(els, lambda a, b: b % a == 0)


def test_validation_rejects_broken_relations():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [0b11, 0b11])
    with pytest.raises(ValueError):
        Poset(["a", "b"], [0b00, 0b10])


@pytest.mark.parametrize("ups, axiom", [
    ([0b01, 0b00], "reflexive"),         # b is not below itself
    ([0b11, 0b11], "antisymmetric"),     # a <= b and b <= a
    ([0b011, 0b110, 0b100], "transitive"),  # a <= b <= c, not a <= c
])
def test_validation_names_each_broken_axiom(ups, axiom):
    with pytest.raises(ValueError, match=f"not {axiom}"):
        Poset(["a", "b", "c"][:len(ups)], ups)


def test_rows_must_fit_the_elements():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [0b01])
    with pytest.raises(ValueError):
        Poset(["a"], [0b11])


def test_covers_of_divisor_poset():
    p = divisor_poset(12)
    cov = {(p.elements[i], p.elements[j]) for i, j in p.covers}
    assert cov == {(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)}


def test_minimum_maximum():
    p = divisor_poset(12)
    assert p.minimum() == 1
    assert p.maximum() == 12
    q = Poset.from_relation([0, 1], lambda a, b: a == b)
    assert q.minimum() is None


def test_nerve_chains_count_on_total_order():
    # chains with k elements in a linear order of 5: binomial(5, k)
    p = chain_poset(5)
    allc = nerve_chains(p)
    assert len(allc) == 2 ** 5 - 1
    sizes = [sum(c.bit_count() == k for c in allc) for k in range(1, 6)]
    assert sizes == [5, 10, 10, 5, 1]


def test_nerve_chains_are_chains_and_sorted():
    p = divisor_poset(12)
    cs = nerve_chains(p)
    assert cs == sorted(cs)
    assert all(p.is_chain(c) for c in cs)
    assert len(set(cs)) == len(cs)


def test_between_and_strict_pairs_on_d_posets():
    for n in range(5):
        p = build_d(standard_interval(n)).poset
        size = len(p)
        for i in range(size):
            for j in range(size):
                want = [k for k in range(size) if p.leq[i, k] and p.leq[k, j]]
                assert bit_list(p.between(i, j)) == want
        assert sorted(p.strict_pairs) == [
            (i, j) for i in range(size) for j in range(size)
            if i != j and p.leq[i, j]]
        sizes = [p.between(i, j).bit_count() for i, j in p.strict_pairs]
        assert sizes == sorted(sizes)


def test_strict_interval():
    p = divisor_poset(12)
    inner = strict_interval(p, 1, 12)
    assert set(inner.elements) == {2, 3, 4, 6}
    assert strict_interval(p, 2, 2).elements == ()


def test_chain_tuple_respects_order():
    p = divisor_poset(12)
    c = mask_of([p.index[1], p.index[6], p.index[2]])
    assert [p.elements[i] for i in p.chain_tuple(c)] == [1, 2, 6]


def test_dot_output_has_cover_edges():
    p = chain_poset(3)
    dot = p.to_dot(lambda e: f"x{e}")
    assert dot.count("->") == 2
    assert 'n2 [label="x2"]' in dot
    assert "digraph" in dot


def test_monotone_map_validation():
    p = chain_poset(3)
    q = chain_poset(2)
    MonotoneMap(p, q, {0: 0, 1: 0, 2: 1})
    with pytest.raises(ValueError):
        MonotoneMap(p, q, {0: 1, 1: 0, 2: 1})


def test_chain_subcomplex_closure_and_validation():
    p = divisor_poset(12)
    gen = mask_of([p.index[1], p.index[2], p.index[12]])
    k = ChainSubcomplex.closure(p, [gen])
    assert len(k.chains) == 7
    ChainSubcomplex(p, k.chains)  # re-validates
    with pytest.raises(ValueError):
        ChainSubcomplex(p, [gen])
    assert k.dimension() == 2
    assert [c for c in k.chains if c.bit_count() == 3] == [gen]


@st.composite
def random_posets(draw):
    """Transitive closure of a random upward relation, with the elements
    shuffled so that index order need not be a linear extension."""
    n = draw(st.integers(min_value=1, max_value=7))
    ups = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                ups[i] |= 1 << j
    for i in reversed(range(n)):
        for j in bits(ups[i] & ~(1 << i)):
            ups[i] |= ups[j]
    perm = draw(st.permutations(range(n)))
    rows = [0] * n
    for i, up in enumerate(ups):
        rows[perm[i]] = mask_of(perm[j] for j in bits(up))
    return Poset(list(range(n)), rows)


def strictly_below(p, i, j):
    return i != j and p.less_eq(p.elements[i], p.elements[j])


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_opposite_involution(p):
    q = p.opposite().opposite()
    assert q.up_masks == p.up_masks
    assert p.opposite().up_masks == p.down_masks


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_covers_match_the_definition(p):
    n = len(p)
    want = [(i, j) for i in range(n) for j in range(n)
            if strictly_below(p, i, j)
            and not any(strictly_below(p, i, k) and strictly_below(p, k, j)
                        for k in range(n))]
    assert p.covers == want


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_topo_rank_is_a_linear_extension(p):
    rank = p.topo_rank
    assert sorted(rank) == list(range(len(p)))
    n = len(p)
    assert all(rank[i] < rank[j] for i in range(n) for j in range(n)
               if strictly_below(p, i, j))


@pytest.mark.parametrize("n", range(1, 9))
def test_d_poset_cover_count(n):
    assert len(build_d(standard_interval(n)).poset.covers) == (n - 1) * 2 ** (n - 1) + 1


def test_leq_view_less_eq_and_rows_agree():
    p = build_d(standard_interval(3)).poset
    for i, a in enumerate(p.elements):
        for j, b in enumerate(p.elements):
            assert p.leq[i, j] == p.less_eq(a, b) == bool(p.up_masks[i] >> j & 1)
