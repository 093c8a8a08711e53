import pytest
from hypothesis import given
from hypothesis import strategies as st

from nervecheck.bits import (bit_list, digits, from_digits, interval_mask,
                             mask_of, max_bit, min_bit, subsets_of,
                             subsets_with_min_max)
from nervecheck.funcspec import one_cells
from nervecheck.oriental import d_elements


def test_roundtrip():
    assert mask_of([0, 1, 3]) == 0b1011
    assert bit_list(0b1011) == [0, 1, 3]
    assert digits(0b1011) == "013"
    assert from_digits("013") == 0b1011


@pytest.mark.parametrize("n", [10, 11, 12])
def test_every_element_of_d10_to_d12_has_its_own_label(n):
    labels = [digits(e) for e in d_elements((1 << (n + 1)) - 1)]
    assert len(set(labels)) == len(labels) == 1 << n
    assert [from_digits(label) for label in labels] == d_elements((1 << (n + 1)) - 1)


def test_labels_past_nine_are_letters():
    assert digits(mask_of([0, 10, 11, 12])) == "0abc"
    assert from_digits("0c") == mask_of([0, 12]) != from_digits("012")
    for bad in ["", "0d", "0A", "0x", "\u0663"]:
        with pytest.raises(ValueError):
            from_digits(bad)
    with pytest.raises(ValueError):
        digits(1 << 13)


def test_min_max():
    assert min_bit(0b1000) == 3
    assert max_bit(0b1011) == 3


def test_interval_mask():
    assert interval_mask(1, 3) == 0b1110
    assert interval_mask(2, 2) == 0b100
    assert interval_mask(3, 1) == 0


def test_subsets_with_min_max():
    got = list(subsets_with_min_max(0b11111, 0, 3))
    assert got == sorted(got)
    assert set(got) == {0b1001, 0b1011, 0b1101, 0b1111}
    assert list(subsets_with_min_max(0b11111, 2, 2)) == [0b100]
    assert list(subsets_with_min_max(0b10001, 0, 3)) == []
    for m in range(1 << 7):
        subs = [x for x in subsets_of(m) if x]
        for lo in range(7):
            for hi in range(7):
                want = sorted(x for x in subs
                              if min_bit(x) == lo and max_bit(x) == hi)
                assert list(subsets_with_min_max(m, lo, hi)) == want
        if m:
            lo = min_bit(m)
            assert d_elements(m) == sorted(
                (1 << lo) | rest for rest in subsets_of(m & ~(1 << lo)))
    # the 1-cells of an oriental and the D-poset elements read this helper
    for i in range(8):
        assert one_cells(i, i) == [1 << i]
        for j in range(i + 1, 8):
            ends = (1 << i) | (1 << j)
            assert one_cells(i, j) == sorted(
                ends | s for s in subsets_of(interval_mask(i + 1, j - 1)))


@given(st.integers(min_value=0, max_value=2**10 - 1))
def test_subsets_count(mask):
    subs = list(subsets_of(mask))
    assert len(subs) == 2 ** mask.bit_count()
    assert len(set(subs)) == len(subs)
