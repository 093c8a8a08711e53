import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck.bits import bit_list, mask_of
from nervecheck.oriental import build_d, standard_interval
from nervecheck.poset import (ChainSubcomplex, MonotoneMap, Poset,
                              nerve_chains, strict_interval)


def chain_poset(n):
    return Poset.from_relation(list(range(n)), lambda a, b: a <= b)


def divisor_poset(top):
    els = [d for d in range(1, top + 1) if top % d == 0]
    return Poset.from_relation(els, lambda a, b: b % a == 0)


def test_validation_rejects_broken_relations():
    m = np.array([[True, True], [True, True]])
    with pytest.raises(ValueError):
        Poset(["a", "b"], m)
    m = np.array([[False, False], [False, True]])
    with pytest.raises(ValueError):
        Poset(["a", "b"], m)


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
    n = draw(st.integers(min_value=1, max_value=7))
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                m[i, j] = True
    # transitive closure keeps i<j orientation, so the result is a poset
    for k in range(n):
        for i in range(n):
            if m[i, k]:
                m[i] |= m[k]
    return Poset(list(range(n)), m)


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_opposite_involution(p):
    q = p.opposite().opposite()
    assert (q.leq == p.leq).all()
